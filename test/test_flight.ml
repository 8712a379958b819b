(* Tests for the per-round flight recorder (Instrument.Flight), the
   windowed timeline (Instrument.Timeline), their Perfetto counter-track
   export, the trace ring-buffer dropped-span warning, and the
   Experiments.Tail sweep's determinism across job counts.

   The heart of the file is the blame-sum invariant: every completed
   round's six phase blames must sum bit-for-bit to its end-to-end
   latency, and any tampered or missing capture point must be detected
   as unattributed time rather than silently mis-blamed. *)

module Json = Instrument.Json
module Flight = Instrument.Flight
module Timeline = Instrument.Timeline
module Perfetto = Instrument.Perfetto
module Trace = Instrument.Trace
module Tail = Experiments.Tail

(* Drive one synthetic round through the initiator hooks.  Timestamps
   are deliberately awkward floats so the exact-sum checks exercise real
   rounding, not round numbers. *)
let synthetic_round ?(cpu = 0) ?(dur = 100.0) f =
  let t0 = 1234.567 +. (dur /. 1000.0) in
  Flight.round_start f ~cpu ~at:t0 ~kind:Flight.Round ~pmap:"user0" ~pages:3;
  Flight.round_lock f ~cpu ~at:(t0 +. (0.07 *. dur));
  Flight.round_shoot f ~cpu ~at:(t0 +. (0.21 *. dur));
  Flight.ipi_posted f ~cpu ~target:1 ~at:(t0 +. (0.22 *. dur));
  Flight.ipi_posted f ~cpu ~target:2 ~at:(t0 +. (0.23 *. dur));
  Flight.barrier_start f ~cpu ~at:(t0 +. (0.3 *. dur));
  Flight.responder_enter f ~cpu:1 ~at:(t0 +. (0.4 *. dur))
    ~posted:(t0 +. (0.22 *. dur));
  Flight.responder_ack f ~cpu:1 ~at:(t0 +. (0.45 *. dur));
  Flight.responder_enter f ~cpu:2 ~at:(t0 +. (0.5 *. dur))
    ~posted:(t0 +. (0.23 *. dur));
  Flight.responder_ack f ~cpu:2 ~at:(t0 +. (0.8 *. dur));
  Flight.barrier_done f ~cpu ~at:(t0 +. (0.81 *. dur));
  Flight.update_done f ~cpu ~at:(t0 +. (0.93 *. dur));
  Flight.round_end f ~cpu ~at:(t0 +. dur)

let test_blame_sums_exactly () =
  let f = Flight.create ~ncpus:4 () in
  List.iter (fun d -> synthetic_round ~dur:d f) [ 100.0; 33.3; 614238.5 ];
  Alcotest.(check int) "rounds" 3 (Flight.rounds f);
  Alcotest.(check int) "unattributed" 0 (Flight.unattributed f);
  List.iter
    (fun r ->
      Alcotest.(check bool) "attributed" true (Flight.attributed_exactly r);
      let sum =
        List.fold_left (fun acc (_, b) -> acc +. b) 0.0 (Flight.blame r)
      in
      (* bit-for-bit, not within epsilon: the Finish residual absorbs
         all float error by construction *)
      Alcotest.(check bool) "sum = duration" true (sum = Flight.duration r);
      List.iter
        (fun (_, b) -> Alcotest.(check bool) "phase >= 0" true (b >= 0.0))
        (Flight.blame r))
    (Flight.top f);
  (* whole-run totals are the per-round blames, summed exactly *)
  let total =
    List.fold_left
      (fun acc ph -> acc +. Flight.phase_total f ph)
      0.0 Flight.phases
  in
  Alcotest.(check (float 1e-9)) "totals" total (Flight.attributed_total f)

let test_tampered_record_detected () =
  let f = Flight.create ~ncpus:4 () in
  synthetic_round f;
  let r = List.hd (Flight.top f) in
  Alcotest.(check bool) "healthy" true (Flight.attributed_exactly r);
  (* a missing capture point — nan in the chain — is unattributed time *)
  let saved = r.Flight.t_barrier in
  r.Flight.t_barrier <- nan;
  Alcotest.(check bool) "nan chain" false (Flight.attributed_exactly r);
  r.Flight.t_barrier <- saved;
  (* a mis-ordered chain (negative phase width) equally fails *)
  r.Flight.t_lock <- r.Flight.t_shoot +. 1.0;
  Alcotest.(check bool) "negative phase" false (Flight.attributed_exactly r)

let test_no_barrier_round_collapses () =
  let f = Flight.create ~ncpus:4 () in
  let t0 = 10.0 in
  Flight.round_start f ~cpu:0 ~at:t0 ~kind:Flight.Round ~pmap:"k" ~pages:1;
  Flight.round_lock f ~cpu:0 ~at:11.0;
  Flight.round_shoot f ~cpu:0 ~at:12.0;
  (* the driver's catch-up writes when no remote user forced a barrier *)
  Flight.barrier_start f ~cpu:0 ~at:12.5;
  Flight.barrier_done f ~cpu:0 ~at:12.5;
  Flight.update_done f ~cpu:0 ~at:13.0;
  Flight.round_end f ~cpu:0 ~at:13.25;
  let r = List.hd (Flight.top f) in
  Alcotest.(check bool) "attributed" true (Flight.attributed_exactly r);
  Alcotest.(check (float 0.0)) "ack zero" 0.0 (List.assoc Flight.Ack_wait (Flight.blame r))

let test_first_write_wins () =
  let f = Flight.create ~ncpus:4 () in
  Flight.round_start f ~cpu:0 ~at:0.0 ~kind:Flight.Round ~pmap:"u" ~pages:1;
  Flight.round_lock f ~cpu:0 ~at:1.0;
  Flight.round_shoot f ~cpu:0 ~at:2.0;
  Flight.barrier_start f ~cpu:0 ~at:3.0;
  Flight.barrier_done f ~cpu:0 ~at:4.0;
  (* the unconditional catch-up in Core.Shootdown.shoot must not clobber
     the boundaries the real barrier wrote *)
  Flight.barrier_start f ~cpu:0 ~at:9.0;
  Flight.barrier_done f ~cpu:0 ~at:9.0;
  Flight.update_done f ~cpu:0 ~at:9.5;
  Flight.round_end f ~cpu:0 ~at:10.0;
  let r = List.hd (Flight.top f) in
  Alcotest.(check (float 0.0)) "t_barrier" 3.0 r.Flight.t_barrier;
  Alcotest.(check (float 0.0)) "t_barrier_done" 4.0 r.Flight.t_barrier_done

let test_abort_and_elide () =
  let f = Flight.create ~ncpus:4 () in
  (* lazy-skip: the open record is dropped without trace *)
  Flight.round_start f ~cpu:0 ~at:0.0 ~kind:Flight.Round ~pmap:"u" ~pages:1;
  Flight.round_abort f ~cpu:0;
  Alcotest.(check int) "no rounds after abort" 0 (Flight.rounds f);
  (* elision: Post and Ack_wait collapse, the record is retagged *)
  Flight.round_start f ~cpu:0 ~at:0.0 ~kind:Flight.Round ~pmap:"u" ~pages:1;
  Flight.round_lock f ~cpu:0 ~at:1.0;
  Flight.round_no_shoot f ~cpu:0 ~at:2.0 ~kind:Flight.Elided;
  Flight.update_done f ~cpu:0 ~at:3.0;
  Flight.round_end f ~cpu:0 ~at:4.0;
  Alcotest.(check int) "elided" 1 (Flight.elided_rounds f);
  let r = List.hd (Flight.top f) in
  Alcotest.(check bool) "kind" true (r.Flight.kind = Flight.Elided);
  Alcotest.(check bool) "attributed" true (Flight.attributed_exactly r);
  Alcotest.(check (float 0.0)) "post zero" 0.0 (List.assoc Flight.Post (Flight.blame r))

let test_top_k_bounded_sorted () =
  let f = Flight.create ~top_k:3 ~ncpus:4 () in
  List.iter (fun d -> synthetic_round ~dur:d f) [ 50.0; 10.0; 90.0; 70.0; 30.0; 80.0 ];
  let top = Flight.top f in
  Alcotest.(check int) "bounded" 3 (List.length top);
  let durs = List.map Flight.duration top in
  Alcotest.(check bool)
    "slowest first" true
    (durs = List.rev (List.sort compare durs));
  Alcotest.(check (float 1e-6)) "slowest kept" 90.0 (List.hd durs)

let test_critical_straggler () =
  let f = Flight.create ~ncpus:4 () in
  (* responder 2 acks last; its enter-posted (delivery) gap dominates *)
  synthetic_round ~dur:100.0 f;
  let r = List.hd (Flight.top f) in
  let c = Flight.critical r in
  Alcotest.(check bool) "ack_wait" true (c.Flight.c_phase = Flight.Ack_wait);
  Alcotest.(check int) "straggler" 2 c.Flight.c_cpu;
  (* cpu 2: delivery = 0.27 dur, handler = 0.30 dur -> handler *)
  Alcotest.(check string) "detail" "handler" c.Flight.c_detail;
  (* non-barrier dominance carries no straggler *)
  let f2 = Flight.create ~ncpus:4 () in
  Flight.round_start f2 ~cpu:0 ~at:0.0 ~kind:Flight.Round ~pmap:"u" ~pages:1;
  Flight.round_lock f2 ~cpu:0 ~at:90.0 (* lock wait dominates *);
  Flight.round_shoot f2 ~cpu:0 ~at:91.0;
  Flight.barrier_start f2 ~cpu:0 ~at:92.0;
  Flight.barrier_done f2 ~cpu:0 ~at:93.0;
  Flight.update_done f2 ~cpu:0 ~at:94.0;
  Flight.round_end f2 ~cpu:0 ~at:95.0;
  let c2 = Flight.critical (List.hd (Flight.top f2)) in
  Alcotest.(check bool) "lock_wait" true (c2.Flight.c_phase = Flight.Lock_wait);
  Alcotest.(check int) "no straggler" (-1) c2.Flight.c_cpu

let test_merge () =
  let a = Flight.create ~top_k:4 ~ncpus:4 () in
  let b = Flight.create ~top_k:4 ~ncpus:4 () in
  synthetic_round ~dur:100.0 a;
  synthetic_round ~dur:200.0 b;
  synthetic_round ~dur:50.0 b;
  let ack_a = Flight.phase_total a Flight.Ack_wait in
  let ack_b = Flight.phase_total b Flight.Ack_wait in
  Flight.merge ~into:a b;
  Alcotest.(check int) "rounds" 3 (Flight.rounds a);
  Alcotest.(check int) "ipis" 6 (Flight.ipis a);
  Alcotest.(check (float 1e-9)) "ack total" (ack_a +. ack_b)
    (Flight.phase_total a Flight.Ack_wait);
  Alcotest.(check (float 1e-6)) "slowest across both" 200.0
    (Flight.duration (List.hd (Flight.top a)));
  (* shape mismatches refuse to merge *)
  let c = Flight.create ~top_k:4 ~ncpus:8 () in
  Alcotest.(check bool) "ncpus mismatch" true
    (try
       Flight.merge ~into:a c;
       false
     with Invalid_argument _ -> true)

let test_flight_json () =
  let f = Flight.create ~ncpus:4 () in
  synthetic_round f;
  let j = Flight.to_json f in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields) ->
      Alcotest.(check bool) "schema" true
        (List.assoc "schema" fields = Json.Str "tlbshoot-flight-v1")
  | Ok _ -> Alcotest.fail "expected an object"

(* ------------------------------------------------------------------ *)
(* Attached to a real machine. *)

let test_real_run_attribution () =
  let params = Tail.default_params in
  let fresh seed = Vm.Machine.create ~params:{ params with Sim.Params.seed } () in
  (* bare run *)
  let bare = Workloads.Tlb_tester.run ~churn_rounds:4 (fresh 7L) ~children:3 () in
  (* recorded run, same seed *)
  let flight = Flight.create ~ncpus:params.Sim.Params.ncpus () in
  Flight.set_timeline flight (Some (Timeline.create ()));
  let machine = fresh 7L in
  Vm.Machine.attach_flight machine flight;
  let rec_ = Workloads.Tlb_tester.run ~churn_rounds:4 machine ~children:3 () in
  (* behaviour-neutral: the recorder observed, never perturbed *)
  Alcotest.(check bool) "same elapsed" true
    (bare.Workloads.Tlb_tester.initiator_elapsed
    = rec_.Workloads.Tlb_tester.initiator_elapsed);
  Alcotest.(check bool) "consistent" true rec_.Workloads.Tlb_tester.consistent;
  (* 4 churn unmaps + the reprotect, at least *)
  Alcotest.(check bool) "rounds recorded" true (Flight.rounds flight >= 5);
  Alcotest.(check int) "all attributed" 0 (Flight.unattributed flight);
  Alcotest.(check bool) "ipis flowed" true (Flight.ipis flight > 0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "round attributed" true
        (Flight.attributed_exactly r))
    (Flight.top flight);
  (* the attached timeline saw every completed round *)
  match Flight.timeline flight with
  | None -> Alcotest.fail "timeline detached"
  | Some tl ->
      Alcotest.(check int) "timeline rounds" (Flight.rounds flight)
        (Timeline.counter_total tl ~series:"rounds")

(* Both sinks on one run: each protocol point fans out to the Flight
   recorder and the span stream at once, and neither perturbs the run nor
   the other sink. *)
let test_two_sinks () =
  let params = Tail.default_params in
  let fresh () =
    Vm.Machine.create ~params:{ params with Sim.Params.seed = 7L } ()
  in
  let run ?flight ?trace () =
    let machine = fresh () in
    Option.iter (Vm.Machine.attach_flight machine) flight;
    machine.Vm.Machine.ctx.Core.Pmap.trace <- trace;
    Workloads.Tlb_tester.run ~churn_rounds:4 machine ~children:3 ()
  in
  let bare = run () in
  let trace_only = Trace.create () in
  ignore (run ~trace:trace_only ());
  let flight = Flight.create ~ncpus:params.Sim.Params.ncpus () in
  let tr = Trace.create () in
  let both = run ~flight ~trace:tr () in
  Alcotest.(check bool) "same result as bare" true (bare = both);
  Alcotest.(check bool) "rounds recorded" true (Flight.rounds flight >= 5);
  Alcotest.(check int) "all attributed" 0 (Flight.unattributed flight);
  Alcotest.(check bool) "spans recorded" true (Trace.length tr > 0);
  Alcotest.(check bool)
    "same spans as a trace-only run" true
    (Trace.spans trace_only = Trace.spans tr)

(* ------------------------------------------------------------------ *)
(* Timeline. *)

let test_timeline_bucketing () =
  let tl = Timeline.create ~window:100.0 () in
  Timeline.count tl ~series:"x" ~at:0.0 1;
  Timeline.count tl ~series:"x" ~at:50.0 1;
  Timeline.count tl ~series:"x" ~at:150.0 1;
  Timeline.count tl ~series:"x" ~at:(-5.0) 1 (* clamps to window 0 *);
  Alcotest.(check (list (pair int int)))
    "windows"
    [ (0, 3); (1, 1) ]
    (Timeline.counter_windows tl ~series:"x");
  Alcotest.(check int) "total" 4 (Timeline.counter_total tl ~series:"x");
  Timeline.observe tl ~series:"lat" ~at:120.0 42.0;
  Alcotest.(check (list string))
    "series sorted" [ "lat"; "x" ] (Timeline.series_names tl)

let test_timeline_merge () =
  let a = Timeline.create ~window:100.0 () in
  let b = Timeline.create ~window:100.0 () in
  Timeline.count a ~series:"x" ~at:10.0 2;
  Timeline.count b ~series:"x" ~at:20.0 3;
  Timeline.count b ~series:"y" ~at:250.0 1;
  Timeline.merge ~into:a b;
  Alcotest.(check (list (pair int int)))
    "summed" [ (0, 5) ]
    (Timeline.counter_windows a ~series:"x");
  Alcotest.(check (list (pair int int)))
    "new series" [ (2, 1) ]
    (Timeline.counter_windows a ~series:"y");
  let c = Timeline.create ~window:50.0 () in
  Alcotest.(check bool) "window mismatch" true
    (try
       Timeline.merge ~into:a c;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Perfetto counter tracks. *)

let counter_fields = function
  | Json.Obj fields ->
      let str k = match List.assoc k fields with Json.Str s -> s | _ -> "" in
      let ts =
        match List.assoc "ts" fields with Json.Float f -> f | _ -> nan
      in
      (str "name", str "ph", ts)
  | _ -> ("", "", nan)

let test_perfetto_counter_tracks () =
  let tl = Timeline.create ~window:100.0 () in
  Timeline.count tl ~series:"rounds" ~at:10.0 1;
  Timeline.count tl ~series:"rounds" ~at:250.0 2;
  Timeline.count tl ~series:"ipis" ~at:120.0 5;
  Timeline.observe tl ~series:"round_latency_us" ~at:10.0 700.0;
  Timeline.observe tl ~series:"round_latency_us" ~at:310.0 900.0;
  (* the whole export parses back as JSON *)
  (match Json.of_string (Perfetto.timeline_to_string tl) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let events = List.map counter_fields (Perfetto.counter_events tl) in
  Alcotest.(check bool) "nonempty" true (events <> []);
  (* every event is a counter event *)
  List.iter
    (fun (_, ph, _) -> Alcotest.(check string) "ph" "C" ph)
    events;
  (* one track per series: the exported names are exactly the series *)
  let names = List.sort_uniq compare (List.map (fun (n, _, _) -> n) events) in
  Alcotest.(check (list string))
    "tracks" (Timeline.series_names tl) names;
  (* within each track, ts strictly increases (windows in index order) *)
  List.iter
    (fun series ->
      let ts =
        List.filter_map
          (fun (n, _, t) -> if n = series then Some t else None)
          events
      in
      let rec mono = function
        | a :: b :: rest -> a < b && mono (b :: rest)
        | _ -> true
      in
      Alcotest.(check bool) (series ^ " monotonic") true (mono ts))
    names

(* ------------------------------------------------------------------ *)
(* Tail sweep: byte-identical across job counts, gate arithmetic. *)

let test_tail_jobs_deterministic () =
  let run jobs = Tail.run ~jobs ~max_procs:3 ~runs_per_point:2 () in
  let j1 = Json.to_string (Tail.to_json (run 1)) in
  let j2 = Json.to_string (Tail.to_json (run 2)) in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (String.equal j1 j2);
  (* and the sweep's own invariants hold even on the tiny grid *)
  let t = run 1 in
  List.iter
    (fun (p : Tail.point) ->
      Alcotest.(check int)
        (Printf.sprintf "unattributed @%d" p.Tail.cpus)
        0 p.Tail.unattributed)
    t.Tail.points;
  Alcotest.(check bool) "consistent" true t.Tail.all_consistent

(* ------------------------------------------------------------------ *)
(* Trace ring buffer: dropped spans must be announced. *)

let test_trace_dropped_warning () =
  let t = Trace.create ~cap:4 () in
  Trace.enable t;
  for i = 1 to 3 do
    Trace.emit t ~name:"ev" ~cpu:0 ~at:(float_of_int i) ()
  done;
  Alcotest.(check (option string)) "no drops yet" None (Trace.dropped_warning t);
  for i = 4 to 10 do
    Trace.emit t ~name:"ev" ~cpu:0 ~at:(float_of_int i) ()
  done;
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  match Trace.dropped_warning t with
  | None -> Alcotest.fail "expected a warning"
  | Some w ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions %S" needle)
            true (contains w needle))
        [ "dropped"; "6"; "10" ]

let () =
  Alcotest.run "flight"
    [
      ( "blame",
        [
          Alcotest.test_case "sums exactly to duration" `Quick
            test_blame_sums_exactly;
          Alcotest.test_case "tampering detected" `Quick
            test_tampered_record_detected;
          Alcotest.test_case "no-barrier round collapses" `Quick
            test_no_barrier_round_collapses;
          Alcotest.test_case "first write wins" `Quick test_first_write_wins;
          Alcotest.test_case "abort and elide" `Quick test_abort_and_elide;
        ] );
      ( "tail",
        [
          Alcotest.test_case "top-K bounded and sorted" `Quick
            test_top_k_bounded_sorted;
          Alcotest.test_case "critical straggler" `Quick
            test_critical_straggler;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "flight json schema" `Quick test_flight_json;
          Alcotest.test_case "real run fully attributed" `Quick
            test_real_run_attribution;
          Alcotest.test_case "trace and flight together" `Quick test_two_sinks;
          Alcotest.test_case "jobs-count deterministic" `Slow
            test_tail_jobs_deterministic;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "bucketing" `Quick test_timeline_bucketing;
          Alcotest.test_case "merge" `Quick test_timeline_merge;
          Alcotest.test_case "perfetto counter tracks" `Quick
            test_perfetto_counter_tracks;
        ] );
      ( "trace",
        [
          Alcotest.test_case "dropped-span warning" `Quick
            test_trace_dropped_warning;
        ] );
    ]
