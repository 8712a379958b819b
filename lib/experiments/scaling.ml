(* Validating the section 8 extrapolation (an extension of the paper).

   The paper could only *extrapolate* its 16-processor fit to larger
   machines ("6 ms basic shootdown time for 100 processors").  The
   simulator is not so constrained: boot machines with 24-64 processors
   and measure the basic shootdown cost directly, then compare the
   measurement with the straight-line prediction from the 16-CPU
   calibration.

   Two regimes emerge, both instructive:
   - with bus bandwidth scaled along with the processor count (a NUMA-ish
     machine, or simply a faster interconnect) the cost tracks the linear
     prediction: the algorithm itself scales as the paper claims;
   - with the single 1989 bus left as-is, congestion makes large machines
     *worse* than the prediction — the physical reason the paper says such
     machines need a different memory structure (processor pools). *)

module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt

type point = {
  ncpus : int;
  involved : int; (* processors involved in the shootdown *)
  measured : float; (* mean initiator elapsed, us *)
  predicted : float; (* from the 16-CPU fit *)
  scaled_bus : bool;
}

type t = { fit : Stats.fit; points : point list }

(* One (machine size, bus regime, run) trial — the seed derives only from
   (ncpus, r), so the sweep fans out through Sim.Domain_pool with results
   identical to a sequential pass. *)
let trial ((ncpus, scaled_bus), r) =
  let involved = ncpus - 2 in
  let params =
    {
      Sim.Params.default with
      ncpus;
      seed = Int64.of_int ((ncpus * 677) + r);
      (* a machine of this size would not ship with a 1989 bus; scale
         service time down with the processor count when asked *)
      bus_service =
        (if scaled_bus then
           Sim.Params.default.Sim.Params.bus_service *. 16.0
           /. float_of_int ncpus
         else Sim.Params.default.Sim.Params.bus_service);
      store_traffic_rate =
        (if scaled_bus then Sim.Params.default.Sim.Params.store_traffic_rate
         else
           (* keep total background load at the 16-CPU level so the
              un-scaled bus is not saturated outright *)
           Sim.Params.default.Sim.Params.store_traffic_rate *. 16.0
           /. float_of_int ncpus);
    }
  in
  let res =
    Workloads.Tlb_tester.run_fresh ~params ~children:involved
      ~seed:params.Sim.Params.seed ()
  in
  if not res.Workloads.Tlb_tester.consistent then
    failwith "scaling: consistency violated";
  res.Workloads.Tlb_tester.initiator_elapsed

let run ?(jobs = 1) ?(runs = 3) ?(sizes = [ 16; 24; 32; 48; 64 ]) ~fit () =
  let predict k =
    fit.Stats.intercept +. (fit.Stats.slope *. float_of_int k)
  in
  let cells =
    List.concat_map
      (fun ncpus -> [ (ncpus, true); (ncpus, false) ])
      sizes
  in
  let points =
    List.map
      (fun ((ncpus, scaled_bus), samples) ->
        let involved = ncpus - 2 in
        {
          ncpus;
          involved;
          measured = Stats.mean samples;
          predicted = predict involved;
          scaled_bus;
        })
      (Sweep.grid ~jobs ~runs cells trial)
  in
  { fit; points }

let render t =
  let table =
    Tablefmt.create
      ~title:
        "Scaling validation (extension): measured basic shootdown cost on \
         larger simulated machines vs the paper-style linear extrapolation"
      ~headers:
        [ "CPUs"; "involved"; "bus"; "measured (us)"; "predicted (us)"; "ratio" ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.ncpus;
          string_of_int p.involved;
          (if p.scaled_bus then "scaled" else "1989");
          Printf.sprintf "%.0f" p.measured;
          Printf.sprintf "%.0f" p.predicted;
          Printf.sprintf "%.2f" (p.measured /. p.predicted);
        ])
    t.points;
  Tablefmt.render table
  ^ "\nWith interconnect bandwidth scaled to the machine size the linear \
     extrapolation\nholds (mildly sublinear: a faster bus also cheapens \
     each per-processor step);\non the unscaled 1989 bus large machines \
     fall well off the line — the congestion\nbehind the paper's \
     pool-structured-kernel recommendation.\n"
