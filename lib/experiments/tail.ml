(* Tail-latency attribution: *which phase* — and at the barrier, which
   responder — makes the slowest shootdown rounds slow.

   A figure2-seeded sweep (same seed formula, same k-children tester
   geometry) with the per-round flight recorder and a windowed timeline
   attached to every machine.  Each trial runs the tester in churn mode:
   besides the classic final reprotect, the main thread deallocates
   [churn_rounds] throwaway pages, each unmap a complete k-responder
   round — so a point owns a real population of rounds and its top-K is
   a genuine tail slice, not the whole distribution (docs/TAIL.md).

   Per point (= k children + the initiator involved in each round) the
   merged recorders are reduced to exact per-phase blame shares, the
   dominant critical-path phase of the top-K slowest rounds, and the
   per-window timeline.  The headline invariant the CI gate checks: at
   few CPUs a round's cost is dominated by the fixed initiator entry
   work (the paper's 430 us intercept — Setup blame), while at many CPUs
   the slowest rounds are the ones where some responder straggled at the
   acknowledgement barrier (Ack_wait blame): the tail's critical path
   shifts to responder ack-wait as CPUs grow, the straggler structure
   numaPTE exploits (PAPERS.md). *)

module Json = Instrument.Json
module Flight = Instrument.Flight
module Timeline = Instrument.Timeline
module Stats = Instrument.Stats
module Tablefmt = Instrument.Tablefmt

type point = {
  cpus : int; (* processors involved: k children + 1 initiator *)
  mean_elapsed : float; (* mean initiator elapsed, as figure2 *)
  rounds : int;
  ipis : int;
  retries : int;
  unattributed : int; (* rounds whose blame missed the latency: 0 or bug *)
  ack_share : float; (* Ack_wait share of total attributed blame *)
  setup_share : float;
  dominant : Flight.phase option; (* whole-point exact blame totals *)
  tail_dominant : Flight.phase option; (* top-K critical-path mode *)
  flight : Flight.t; (* merged across the point's runs *)
}

type t = {
  points : point list;
  runs_per_point : int;
  top_k : int;
  window : float;
  all_consistent : bool;
}

(* Rounds per trial beyond the tester's final reprotect: the churn phase
   deallocates this many main-thread-owned pages, each a complete
   k-responder round, so a point's top-K is a real slice of a real round
   population instead of the whole of it. *)
let churn_rounds = 12

(* The sweep's machine configuration: the *production* machine —
   background device interrupts and kernel spl sections, the load the
   paper blames for the longer, more skewed kernel-pmap shootdown
   times — with two deliberate changes.

   IPIs go out as one multicast per round (Params.ipi_mode, the delivery
   option the cluster-targeted sweep already uses): unicast posting
   serializes ~20 us of initiator work per responder, which would bury
   the barrier under the posting loop at every CPU count.

   Device handlers are sparse but long (a CPU is inside one ~2% of the
   time, mean 450 us — slow controllers, DMA completion walks) instead
   of production's frequent-and-short.  Shootdown IPIs sit below device
   priority (high_priority_shootdown = false, the section 6 worry), so a
   responder caught in a handler masks the IPI until it finishes — and
   whether any round suffers that is a per-responder exposure bet the
   initiator places n-1 times.  At 4 CPUs the bet rarely loses and the
   fixed 430 us entry cost still tops the tail; at 16 it loses most
   rounds, and the tail's critical path is the straggling responder.
   That n-scaling — not a heavier machine at high n — is what the gate
   certifies; frequent short handlers would instead smear small delays
   over every point alike. *)
let default_params =
  {
    Sim.Params.production with
    Sim.Params.ipi_mode = Sim.Params.Multicast;
    device_intr_rate = 20_000.0;
    device_intr_service = 450.0;
  }

(* Figure 2's sweep in churn mode with a fresh flight recorder (and its
   timeline) on every trial; a point's recorders merge in run order. *)
let run ?(jobs = 1) ?(max_procs = 15) ?(runs_per_point = 10)
    ?(top_k = Flight.default_top_k) ?(window = Timeline.default_window) () =
  let params = default_params in
  let grid =
    Sweep.grid ~jobs ~runs:runs_per_point (Sweep.procs max_procs)
      (fun (k, r) ->
        let flight = Flight.create ~top_k ~ncpus:params.Sim.Params.ncpus () in
        Flight.set_timeline flight (Some (Timeline.create ~window ()));
        let res, _ =
          Sweep.tester ~churn_rounds ~params ~recorder:(Sweep.Recorded flight)
            ~children:k (Sweep.seed k r)
        in
        (res, flight))
  in
  let point (k, trials) =
    let merged = Sweep.merge Flight.merge (List.map snd trials) in
    let attributed = Flight.attributed_total merged in
    let share ph = Sweep.frac (Flight.phase_total merged ph) attributed in
    {
      cpus = k + 1;
      mean_elapsed = Stats.mean (Sweep.elapsed trials);
      rounds = Flight.rounds merged;
      ipis = Flight.ipis merged;
      retries = Flight.retries merged;
      unattributed = Flight.unattributed merged;
      ack_share = share Flight.Ack_wait;
      setup_share = share Flight.Setup;
      dominant = Flight.dominant_phase merged;
      tail_dominant = Flight.tail_dominant merged;
      flight = merged;
    }
  in
  {
    points = List.map point grid;
    runs_per_point;
    top_k;
    window;
    all_consistent = Sweep.all_consistent grid;
  }

(* The CI gate: every recorded round's blame sums exactly to its latency
   (no unattributed time anywhere), every run kept the TLBs consistent,
   and the tail's critical path is responder ack-wait at [hi] CPUs but
   not yet at [lo] — the shift from fixed entry cost to barrier
   straggling that defines the tail regime. *)
let gate_holds ?(lo = 4) ?(hi = 16) t =
  t.all_consistent
  && List.for_all (fun p -> p.unattributed = 0) t.points
  &&
  match Sweep.bracket (fun p -> p.cpus) ~lo ~hi t.points with
  | Some (a, b) ->
      b.tail_dominant = Some Flight.Ack_wait
      && a.tail_dominant <> Some Flight.Ack_wait
  | None -> false

let phase_opt_json = function
  | Some p -> Json.Str (Flight.phase_name p)
  | None -> Json.Null

let point_json p =
  Json.Obj
    [
      ("cpus", Json.Int p.cpus);
      ("mean_elapsed_us", Json.Float p.mean_elapsed);
      ("rounds", Json.Int p.rounds);
      ("ipis", Json.Int p.ipis);
      ("retries", Json.Int p.retries);
      ("unattributed", Json.Int p.unattributed);
      ("ack_wait_share", Json.Float p.ack_share);
      ("setup_share", Json.Float p.setup_share);
      ("dominant_phase", phase_opt_json p.dominant);
      ("tail_dominant_phase", phase_opt_json p.tail_dominant);
      ( "phase_totals_us",
        Json.Obj
          (List.map
             (fun ph ->
               (Flight.phase_name ph, Json.Float (Flight.phase_total p.flight ph)))
             Flight.phases) );
    ]

let to_json ?(lo = 4) ?(hi = 16) t =
  let gate =
    match Sweep.bracket (fun p -> p.cpus) ~lo ~hi t.points with
    | Some (a, b) ->
        Json.Obj
          [
            ("lo_cpus", Json.Int lo);
            ("hi_cpus", Json.Int hi);
            ("tail_dominant_lo", phase_opt_json a.tail_dominant);
            ("tail_dominant_hi", phase_opt_json b.tail_dominant);
            ( "unattributed_total",
              Json.Int
                (List.fold_left (fun acc p -> acc + p.unattributed) 0 t.points)
            );
            ("all_consistent", Json.Bool t.all_consistent);
            ("holds", Json.Bool (gate_holds ~lo ~hi t));
          ]
    | None -> Json.Null
  in
  (* the hi point carries the interesting tail: its full flight report
     (top-K records with blame + critical path) and its timeline *)
  let hi_detail =
    match Sweep.at (fun p -> p.cpus) hi t.points with
    | None -> []
    | Some p ->
        ("flight", Flight.to_json p.flight)
        ::
        (match Flight.timeline p.flight with
        | Some tl -> [ ("timeline", Timeline.to_json tl) ]
        | None -> [])
  in
  Json.Obj
    ([
       ("schema", Json.Str "tlbshoot-tail-v1");
       ("runs_per_point", Json.Int t.runs_per_point);
       ("top_k", Json.Int t.top_k);
       ("window_us", Json.Float t.window);
       ("all_consistent", Json.Bool t.all_consistent);
       ("points", Json.List (List.map point_json t.points));
       ("gate", gate);
     ]
    @ hi_detail)

let phase_opt_name = function
  | Some p -> Flight.phase_name p
  | None -> "-"

(* Compressed histogram of the top-K rounds' critical phases, e.g.
   "9a 5s 2p" — ack_wait/setup/post by first letter, descending count. *)
let tail_mix flight =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let ph = (Flight.critical r).Flight.c_phase in
      Hashtbl.replace counts ph (1 + Option.value ~default:0 (Hashtbl.find_opt counts ph)))
    (Flight.top flight);
  let entries = Hashtbl.fold (fun ph n acc -> (ph, n) :: acc) counts [] in
  let entries =
    List.sort (fun (_, a) (_, b) -> compare (b : int) a) entries
  in
  String.concat " "
    (List.map
       (fun (ph, n) ->
         Printf.sprintf "%d%c" n (Flight.phase_name ph).[0])
       entries)

let render ?(lo = 4) ?(hi = 16) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Tail attribution: what makes the slowest shootdown rounds slow\n\
     (exact per-phase blame, merged over runs; tail = top-K critical paths)\n\n";
  let table =
    Tablefmt.create ~title:""
      ~headers:
        [
          "cpus"; "mean (us)"; "rounds"; "ack-wait"; "setup"; "dominant";
          "tail"; "top mix"; "unattr";
        ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.mean_elapsed;
          string_of_int p.rounds;
          Printf.sprintf "%.1f%%" (100.0 *. p.ack_share);
          Printf.sprintf "%.1f%%" (100.0 *. p.setup_share);
          phase_opt_name p.dominant;
          phase_opt_name p.tail_dominant;
          tail_mix p.flight;
          string_of_int p.unattributed;
        ])
    t.points;
  Buffer.add_string buf (Tablefmt.render table);
  (* bar plot of the ack-wait blame share: the shift made visible *)
  Buffer.add_string buf
    (Sweep.share_bars "ack-wait share of attributed round time"
       (List.map (fun p -> (p.cpus, p.ack_share)) t.points));
  (* the hi point's slowest rounds, with their critical paths *)
  (match Sweep.at (fun p -> p.cpus) hi t.points with
  | None -> ()
  | Some p ->
      Buffer.add_string buf
        (Printf.sprintf "\nslowest rounds at %d cpus (top %d):\n" hi t.top_k);
      List.iter
        (fun r ->
          let c = Flight.critical r in
          Buffer.add_string buf
            (Printf.sprintf
               "  %8.1f us  cpu %-2d %-12s critical: %s (%.1f us%s)\n"
               (Flight.duration r) r.Flight.cpu
               (Flight.kind_name r.Flight.kind)
               (Flight.phase_name c.Flight.c_phase)
               c.Flight.c_blame
               (if c.Flight.c_cpu >= 0 then
                  Printf.sprintf ", straggler cpu %d via %s" c.Flight.c_cpu
                    c.Flight.c_detail
                else "")))
        (Flight.top p.flight));
  Buffer.add_string buf
    (Printf.sprintf
       "\ntail gate (critical path ack-wait at %d cpus, not yet at %d): %b\n\
        unattributed rounds (must be 0): %d\n\
        consistency maintained in every run: %b\n"
       hi lo (gate_holds ~lo ~hi t)
       (List.fold_left (fun acc p -> acc + p.unattributed) 0 t.points)
       t.all_consistent);
  Buffer.contents buf
