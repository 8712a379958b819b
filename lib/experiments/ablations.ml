(* Section 9: hardware design implications, as measurable ablations.

   Each proposed hardware feature is a parameter of the simulated machine;
   the consistency tester provides a controlled single-shootdown
   microbenchmark to price them:

   - multicast / broadcast interprocessor interrupts (vs. the Multimax's
     one-at-a-time sends), including the crossover point beyond which
     interrupting everybody beats iterating down the target list;
   - a high-priority software interrupt above device priority, which stops
     device-masked sections from delaying responders;
   - software-reloaded TLBs with safe ref/mod handling, which let
     responders invalidate and return instead of stalling for the barrier;
   - full hardware remote invalidation (MC88200-style), which eliminates
     the interrupts entirely;
   - the single-entry-invalidate vs. whole-buffer-flush threshold;
   - ASID-tagged TLBs (the section 10 extension), which must remain
     consistent even though pmaps stay "in use" after a context switch. *)

module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt
module P = Sim.Params

type variant = { label : string; params : P.t }

let base = P.default

let variants =
  [
    { label = "baseline (unicast IPI)"; params = base };
    { label = "multicast IPI"; params = { base with P.ipi_mode = P.Multicast } };
    { label = "broadcast IPI"; params = { base with P.ipi_mode = P.Broadcast } };
    {
      label = "high-priority soft intr";
      params =
        {
          base with
          P.high_priority_shootdown = true;
          device_intr_rate = 800.0 (* heavy device load to show the effect *);
        };
    };
    {
      label = "device load, normal IPI";
      params = { base with P.device_intr_rate = 800.0 };
    };
    {
      label = "software reload (MIPS)";
      params =
        {
          base with
          P.tlb_reload = P.Software_reload;
          tlb_interlocked_refmod = true;
        };
    };
    {
      label = "remote invalidate (88200)";
      params =
        {
          base with
          P.consistency = P.Hw_remote;
          tlb_interlocked_refmod = true;
        };
    };
    {
      label = "ASID-tagged TLB";
      params = { base with P.tlb_asid_tagged = true };
    };
  ]

type measurement = {
  label : string;
  procs : int;
  initiator_mean : float;
  responder_mean : float; (* mean time in the shootdown ISR, 0 if none *)
  consistent : bool;
}

let measure_variant ?(runs = 3) ~procs v =
  let samples = ref [] in
  let responders = ref [] in
  let consistent = ref true in
  for r = 1 to runs do
    let res, machine =
      Sweep.tester ~params:v.params ~recorder:Sweep.Bare ~children:procs
        (Int64.of_int ((procs * 7919) + r))
    in
    if not res.Workloads.Tlb_tester.consistent then consistent := false;
    let e = res.Workloads.Tlb_tester.initiator_elapsed in
    if not (Float.is_nan e) then samples := e :: !samples;
    responders :=
      Instrument.Summary.responders machine.Vm.Machine.xpr @ !responders
  done;
  {
    label = v.label;
    procs;
    (* Hw_remote performs no interrupts, so no initiator event is recorded;
       report 0 (the cost is folded into the pmap operation itself). *)
    initiator_mean = (match !samples with [] -> 0.0 | s -> Stats.mean s);
    responder_mean = (match !responders with [] -> 0.0 | s -> Stats.mean s);
    consistent = !consistent;
  }

type t = {
  grid : measurement list list; (* per variant, per procs *)
  procs_points : int list;
  crossover : int option; (* first k where broadcast beats unicast *)
  threshold_rows : (int * int * float) list; (* pages, threshold, resp mean *)
}

let find_crossover ?(runs = 2) () =
  let mean_for params k =
    let samples =
      List.init runs (fun r ->
          (Workloads.Tlb_tester.run_fresh ~params ~children:k
             ~seed:(Int64.of_int ((k * 131) + r))
             ())
            .Workloads.Tlb_tester.initiator_elapsed)
    in
    Stats.mean samples
  in
  let rec go k =
    if k > 14 then None
    else if
      mean_for { base with P.ipi_mode = P.Broadcast } k < mean_for base k
    then Some k
    else go (k + 1)
  in
  go 2

(* Responder cost for invalidating [pages] translations under a given
   single-invalidate/full-flush threshold. *)
let threshold_sweep ?(jobs = 1) ?(procs = 6) () =
  Sim.Domain_pool.map_trials ~jobs
    (fun (pages, threshold) ->
      let params = { base with P.tlb_flush_threshold = threshold } in
      let machine = Vm.Machine.create ~params () in
      ignore (Workloads.Tlb_tester.run ~pages machine ~children:procs ());
      let resp = Instrument.Summary.responders machine.Vm.Machine.xpr in
      (pages, threshold, Stats.mean resp))
    (List.concat_map
       (fun pages -> List.map (fun threshold -> (pages, threshold)) [ 2; 8; 32 ])
       [ 1; 4; 12 ])

(* The variant grid (one row per variant, run i at the i-th processor
   count) and the threshold sweep fan their cells out through the domain
   pool (every cell seeds its own machines); [find_crossover] stays
   sequential because each step depends on the previous mean. *)
let run ?(jobs = 1) ?(runs = 3) ?(procs_points = [ 3; 7; 14 ]) () =
  let grid =
    Sweep.grid ~jobs ~runs:(List.length procs_points) variants (fun (v, i) ->
        measure_variant ~runs ~procs:(List.nth procs_points i) v)
  in
  {
    grid = List.map snd grid;
    procs_points;
    crossover = find_crossover ();
    threshold_rows = threshold_sweep ~jobs ();
  }

let render t =
  let table =
    Tablefmt.create
      ~title:
        "Section 9 Ablations: initiator cost (us) by hardware support \
         option (responder mean in parentheses)"
      ~headers:
        ("variant"
        :: List.map (fun k -> Printf.sprintf "%d procs" k) t.procs_points
        @ [ "consistent" ])
  in
  List.iter
    (fun row ->
      match row with
      | [] -> ()
      | first :: _ ->
          Tablefmt.add_row table
            ((first.label
             :: List.map
                  (fun m ->
                    Printf.sprintf "%.0f (%.0f)" m.initiator_mean
                      m.responder_mean)
                  row)
            @ [ (if List.for_all (fun m -> m.consistent) row then "yes" else "NO") ]))
    t.grid;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Tablefmt.render table);
  (match t.crossover with
  | Some k ->
      Buffer.add_string buf
        (Printf.sprintf
           "\nbroadcast-vs-iterate crossover: broadcast wins from %d \
            processors (paper: \"beyond some number of processors it is \
            faster to use a broadcast interrupt\")\n"
           k)
  | None ->
      Buffer.add_string buf
        "\nbroadcast never beat unicast in the sweep (unexpected)\n");
  let table2 =
    Tablefmt.create
      ~title:"\nInvalidate-vs-flush threshold: responder mean (us)"
      ~headers:[ "pages"; "threshold 2"; "threshold 8"; "threshold 32" ]
  in
  List.iter
    (fun pages ->
      let row =
        List.filter_map
          (fun (p, _, m) -> if p = pages then Some (Printf.sprintf "%.0f" m) else None)
          t.threshold_rows
      in
      Tablefmt.add_row table2 (string_of_int pages :: row))
    [ 1; 4; 12 ];
  Buffer.add_string buf (Tablefmt.render table2);
  Buffer.contents buf
