(* Tests for Sim.Domain_pool (the parallel trial runner) and the
   Instrument.Metrics merge rules it relies on: order preservation,
   the jobs=1 fast path, exception propagation out of worker domains,
   nested-use rejection, and the headline determinism property — a
   Figure 2 sweep is bit-for-bit identical at jobs 1, 2 and 4. *)

module Pool = Sim.Domain_pool
module Metrics = Instrument.Metrics

(* ------------------------------------------------------------------ *)
(* map_trials semantics *)

let test_order_preserved () =
  let input = List.init 100 Fun.id in
  let expected = List.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      (* vary per-trial work so slow trials finish out of claim order and
         the fast workers claim more of the trials *)
      let f i =
        let spin = ref 0 in
        for _ = 1 to (i mod 7) * 1000 do
          incr spin
        done;
        ignore !spin;
        i * i
      in
      Alcotest.(check (list int))
        (Printf.sprintf "squares in input order at jobs=%d" jobs)
        expected
        (Pool.map_trials ~jobs f input))
    [ 1; 2; 4; 8 ]

let test_empty_and_oversubscribed () =
  Alcotest.(check (list int))
    "empty input" []
    (Pool.map_trials ~jobs:4 (fun i -> i) []);
  (* more jobs than trials: never spawns more workers than trials *)
  Alcotest.(check (list int))
    "3 trials, 16 jobs" [ 0; 2; 4 ]
    (Pool.map_trials ~jobs:16 (fun i -> 2 * i) [ 0; 1; 2 ])

let test_jobs_one_fast_path () =
  (* jobs=1 must behave exactly like List.map: runs on the calling domain
     (observable through shared state without synchronization) *)
  let trace = ref [] in
  let out =
    Pool.map_trials ~jobs:1
      (fun i ->
        trace := i :: !trace;
        i + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] out;
  Alcotest.(check (list int)) "ran sequentially in order" [ 3; 2; 1 ] !trace

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Domain_pool.map_trials: jobs must be >= 1")
    (fun () -> ignore (Pool.map_trials ~jobs:0 Fun.id [ 1 ]))

let test_exception_propagation () =
  (* the failing trial's exception must surface in the caller, from a
     worker domain, with the pool released afterwards *)
  List.iter
    (fun jobs ->
      (try
         ignore
           (Pool.map_trials ~jobs
              (fun i -> if i = 7 then failwith "trial 7 exploded" else i)
              (List.init 20 Fun.id));
         Alcotest.failf "expected an exception at jobs=%d" jobs
       with Failure msg ->
         Alcotest.(check string)
           (Printf.sprintf "message at jobs=%d" jobs)
           "trial 7 exploded" msg);
      (* the guard was released by Fun.protect: a new sweep works *)
      Alcotest.(check (list int))
        "pool usable after failure" [ 0; 1 ]
        (Pool.map_trials ~jobs Fun.id [ 0; 1 ]))
    [ 2; 4 ]

let test_nested_rejected () =
  try
    ignore
      (Pool.map_trials ~jobs:2
         (fun _ -> Pool.map_trials ~jobs:2 Fun.id [ 1; 2 ])
         [ 1; 2 ]);
    Alcotest.fail "nested parallel map_trials should be rejected"
  with Invalid_argument msg ->
    Alcotest.(check bool)
      "mentions nesting" true
      (String.starts_with ~prefix:"Domain_pool.map_trials: nested" msg)

let test_nested_sequential_allowed () =
  (* jobs=1 inside a parallel sweep is the documented escape hatch *)
  let out =
    Pool.map_trials ~jobs:2
      (fun i -> List.fold_left ( + ) 0 (Pool.map_trials ~jobs:1 Fun.id [ i; i ]))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "nested jobs=1 works" [ 2; 4; 6 ] out

(* ------------------------------------------------------------------ *)
(* Metrics.merge: the rules that combine per-section/per-domain
   registries into the exported report *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter a "events");
  Metrics.inc ~by:4 (Metrics.counter b "events");
  Metrics.inc ~by:1 (Metrics.counter b "only_b");
  Metrics.set (Metrics.gauge a "slope") 55.0;
  ignore (Metrics.gauge b "slope" (* registered but unset: must not clobber *));
  ignore (Metrics.gauge b "unset_gauge");
  Metrics.observe_list (Metrics.histogram a "lat") [ 1.0; 2.0 ];
  Metrics.observe_list (Metrics.histogram b "lat") [ 3.0 ];
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Metrics.count (Metrics.counter a "events"));
  Alcotest.(check int) "new counter copied" 1
    (Metrics.count (Metrics.counter a "only_b"));
  Alcotest.(check (float 0.0)) "unset gauge does not clobber" 55.0
    (Metrics.value (Metrics.gauge a "slope"));
  Alcotest.(check bool) "unset gauge still registered" true
    (List.mem "unset_gauge" (Metrics.names a));
  Alcotest.(check (list (float 0.0))) "histogram appends in order"
    [ 1.0; 2.0; 3.0 ]
    (Metrics.samples (Metrics.histogram a "lat"));
  (* kind conflicts are schema bugs and must be loud *)
  let c = Metrics.create () in
  ignore (Metrics.counter c "slope");
  Alcotest.(check bool) "kind conflict raises" true
    (try
       Metrics.merge ~into:a c;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The determinism property: the Figure 2 sweep — per-trial seeds, fresh
   machine per trial — is identical at every job count. *)

(* The pool-level determinism property: for any trial count (including
   fewer trials than workers), any skew in per-trial cost (so fast
   workers claim many trials while slow ones run few), and an optional
   mid-sweep exception, both the result list and the raised error are
   identical at jobs 1, 2, 4 and 8.  At most one trial fails per case;
   sweeps with several failures are "first error in input order". *)
exception Trial_failed of int

let pool_identical_across_jobs =
  QCheck.Test.make
    ~name:"map_trials results+errors identical at jobs in {1,2,4,8}" ~count:25
    QCheck.(
      triple (int_range 0 40)
        (array_of_size Gen.(return 8) (int_range 0 2000))
        (option (int_range 0 39)))
    (fun (n, weights, fail_at) ->
      let f i =
        (* busy-spin proportional to a generated weight: skewed trial
           durations let workers claim trials out of step *)
        let spin = ref 0 in
        let w = if Array.length weights = 0 then 0 else weights.(i mod 8) in
        for _ = 1 to w do
          incr spin
        done;
        ignore !spin;
        if fail_at = Some i then raise (Trial_failed i);
        (i * 31) + 7
      in
      let outcome jobs =
        match Pool.map_trials ~jobs f (List.init n Fun.id) with
        | res -> Ok res
        | exception Trial_failed i -> Error i
      in
      let seq = outcome 1 in
      List.for_all (fun jobs -> outcome jobs = seq) [ 2; 4; 8 ])

(* With several failing trials the raised error is still the first
   failure in input order — the one [List.map] raises — at every job
   count.  The costs are skewed so that a worker which ran trials out of
   input order would reach a later failure first: even trials slow,
   cost growing with the index, and every trial failing. *)
let test_first_error_in_input_order () =
  let spin k =
    let r = ref 0 in
    for _ = 1 to k do
      incr r
    done;
    ignore !r
  in
  let even_slow i = if i mod 2 = 0 then 2_000_000 else 0 in
  let growing i = i * 50_000 in
  let flat _ = 100_000 in
  List.iter
    (fun (name, n, fails, cost) ->
      let f i =
        spin (cost i);
        if List.mem i fails then raise (Trial_failed i);
        i
      in
      let outcome jobs =
        match Pool.map_trials ~jobs f (List.init n Fun.id) with
        | _ -> None
        | exception Trial_failed i -> Some i
      in
      let first = outcome 1 in
      Alcotest.(check (option int))
        (name ^ ": jobs=1 raises the first failure")
        (Some (List.fold_left min max_int fails))
        first;
      List.iter
        (fun jobs ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: same error at jobs=%d" name jobs)
            first (outcome jobs))
        [ 2; 4; 8 ])
    [
      ("even trials slow", 20, [ 3; 7 ], even_slow);
      ("cost grows with index", 40, [ 5; 21; 38 ], growing);
      ("every trial fails", 9, List.init 9 Fun.id, flat);
    ]

let figure2_identical_across_jobs =
  QCheck.Test.make ~name:"Figure2.run identical at jobs in {1,2,4}" ~count:4
    QCheck.(pair (int_range 2 4) (int_range 1 2))
    (fun (max_procs, runs_per_point) ->
      (* the shrinker may walk outside the generator's range; clamp to the
         smallest valid sweep (the fit needs >= 2 points) *)
      let max_procs = max 2 (min 4 max_procs) in
      let runs_per_point = max 1 (min 2 runs_per_point) in
      let at jobs =
        Experiments.Figure2.run ~jobs ~max_procs ~runs_per_point
          ~fit_limit:max_procs ()
      in
      let seq = at 1 in
      List.for_all (fun jobs -> at jobs = seq) [ 2; 4 ])

(* The grid every experiment sweep runs on: each point gets its runs in
   run order at any job count, under skewed trial costs, and a point
   without runs is refused. *)
let grid_identical_across_jobs =
  QCheck.Test.make ~name:"Sweep.grid keeps run order at jobs in {1,2,4}"
    ~count:25
    QCheck.(pair (int_range 0 6) (int_range 1 5))
    (fun (npoints, runs) ->
      let npoints = max 0 (min 6 npoints) and runs = max 1 (min 5 runs) in
      let points = List.init npoints (fun i -> 100 * i) in
      let trial (p, r) =
        let spin = ref 0 in
        for _ = 1 to (p + r) mod 7 * 1000 do
          incr spin
        done;
        ignore !spin;
        p + r
      in
      let expected =
        List.map (fun p -> (p, List.init runs (fun r -> p + r))) points
      in
      List.for_all
        (fun jobs -> Experiments.Sweep.grid ~jobs ~runs points trial = expected)
        [ 1; 2; 4 ])

let test_grid_rejects_no_runs () =
  Alcotest.check_raises "runs=0 rejected"
    (Invalid_argument "Sweep.grid: runs must be >= 1") (fun () ->
      ignore (Experiments.Sweep.grid ~jobs:1 ~runs:0 [ 1 ] (fun _ -> ())))

let () =
  Alcotest.run "parallel"
    [
      ( "domain-pool",
        [
          Alcotest.test_case "order preserved (with stealing)" `Quick
            test_order_preserved;
          Alcotest.test_case "empty + oversubscribed" `Quick
            test_empty_and_oversubscribed;
          Alcotest.test_case "jobs=1 fast path" `Quick test_jobs_one_fast_path;
          Alcotest.test_case "jobs<1 rejected" `Quick test_invalid_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested parallel rejected" `Quick
            test_nested_rejected;
          Alcotest.test_case "nested sequential allowed" `Quick
            test_nested_sequential_allowed;
          Alcotest.test_case "first error in input order" `Quick
            test_first_error_in_input_order;
        ] );
      ("metrics-merge", [ Alcotest.test_case "merge rules" `Quick test_metrics_merge ]);
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest pool_identical_across_jobs;
          QCheck_alcotest.to_alcotest figure2_identical_across_jobs;
          QCheck_alcotest.to_alcotest grid_identical_across_jobs;
          Alcotest.test_case "Sweep.grid rejects runs < 1" `Quick
            test_grid_rejects_no_runs;
        ] );
    ]
