(* Knee decomposition: *why* the Figure 2 curve bends past ~12 CPUs.

   The figure2 sweep is re-run with the contention profiler attached to
   every machine.  Each (k children, run r) trial uses figure2's exact
   seed formula, so a point here corresponds one-to-one with a figure2
   point; the profiler adds zero simulated cost, so elapsed times match
   figure2's byte for byte.  Per point (= per CPU count involved in the
   shootdown: the k children plus the initiator) the merged profiles are
   reduced to the shares of attributed CPU time spent waiting on the bus,
   spinning on locks and waiting at the ack barrier, plus the mean bus
   queue depth seen at enqueue.

   The paper's 430 us + 55 us/processor trend holds while these shares
   stay flat; the knee is where the bus-wait share turns superlinear —
   the shared bus saturating under the IPI/ack and invalidation traffic
   of many simultaneous responders (paper section 5.2). *)

module Json = Instrument.Json
module Profile = Instrument.Profile
module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt

type point = {
  cpus : int; (* processors involved: k children + 1 initiator *)
  mean_elapsed : float; (* mean initiator elapsed, as figure2 *)
  shares : Sweep.shares; (* of the merged profile *)
  profile : Profile.t; (* merged across the point's runs *)
}

type t = {
  points : point list;
  runs_per_point : int;
  all_consistent : bool;
}

(* Figure 2's sweep with a fresh profiler on every trial; the profiler
   adds no simulated cost, so elapsed times match figure2's. *)
let run ?(jobs = 1) ?(max_procs = 15) ?(runs_per_point = 10) () =
  let params = Sim.Params.default in
  let grid =
    Sweep.grid ~jobs ~runs:runs_per_point (Sweep.procs max_procs)
      (fun (k, r) ->
        let profile = Profile.create ~ncpus:params.Sim.Params.ncpus () in
        let res, _ =
          Sweep.tester ~params ~recorder:(Sweep.Profiled profile) ~children:k
            (Sweep.seed k r)
        in
        (res, profile))
  in
  let points =
    List.map
      (fun (k, trials) ->
        let profile = Sweep.merge Profile.merge (List.map snd trials) in
        {
          cpus = k + 1;
          mean_elapsed = Stats.mean (Sweep.elapsed trials);
          shares = Sweep.shares profile;
          profile;
        })
      grid
  in
  { points; runs_per_point; all_consistent = Sweep.all_consistent grid }

(* The headline invariant the CI gate checks: the bus-wait share of CPU
   time at [hi] CPUs exceeds the share at [lo] CPUs — contention grows
   with the processor count, and superlinearly so near the knee. *)
let knee_holds ?(lo = 4) ?(hi = 16) t =
  match Sweep.bracket (fun p -> p.cpus) ~lo ~hi t.points with
  | Some (a, b) -> b.shares.bus_wait > a.shares.bus_wait
  | None -> false

let point_json p =
  Json.Obj
    [
      ("cpus", Json.Int p.cpus);
      ("mean_elapsed_us", Json.Float p.mean_elapsed);
      ("bus_wait_frac", Json.Float p.shares.bus_wait);
      ("lock_spin_frac", Json.Float p.shares.lock_spin);
      ("ack_wait_frac", Json.Float p.shares.ack_wait);
      ("mean_queue_depth", Json.Float p.shares.queue_depth);
    ]

let to_json ?(lo = 4) ?(hi = 16) t =
  let knee =
    match Sweep.bracket (fun p -> p.cpus) ~lo ~hi t.points with
    | Some (a, b) ->
        Json.Obj
          [
            ("lo_cpus", Json.Int lo);
            ("hi_cpus", Json.Int hi);
            ("bus_wait_frac_lo", Json.Float a.shares.bus_wait);
            ("bus_wait_frac_hi", Json.Float b.shares.bus_wait);
            ("holds", Json.Bool (knee_holds ~lo ~hi t));
          ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-knee-v1");
      ("runs_per_point", Json.Int t.runs_per_point);
      ("all_consistent", Json.Bool t.all_consistent);
      ("points", Json.List (List.map point_json t.points));
      ("knee", knee);
    ]

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Knee decomposition: where the Figure 2 trend's time goes\n\
     (shares of attributed CPU time, whole run, merged over runs)\n\n";
  let table =
    Tablefmt.create ~title:""
      ~headers:
        [ "cpus"; "mean (us)"; "bus-wait"; "lock-spin"; "ack-wait"; "queue" ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.mean_elapsed;
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.bus_wait);
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.lock_spin);
          Printf.sprintf "%.1f%%" (100.0 *. p.shares.ack_wait);
          Printf.sprintf "%.2f" p.shares.queue_depth;
        ])
    t.points;
  Buffer.add_string buf (Tablefmt.render table);
  (* bar plot of the bus-wait share: the knee made visible *)
  Buffer.add_string buf
    (Sweep.share_bars "bus-wait share of attributed CPU time"
       (List.map (fun p -> (p.cpus, p.shares.bus_wait)) t.points));
  Buffer.add_string buf
    (Printf.sprintf
       "\nknee invariant (bus-wait share at 16 cpus > at 4 cpus): %b\n\
        consistency maintained in every run: %b\n"
       (knee_holds t) t.all_consistent);
  Buffer.contents buf
