(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (sections 5-9).  Host-time costs per layer are
   measured from outside, by perfbench/.

   Modes:
     (default)    — the full run: every section below
     --smoke      — small deterministic subset for CI: Figure 2 at
                    1..8 processors x 3 runs, Table 1 and the
                    applications at 10 % scale; skips the baselines,
                    scaling, pools and ablations sections
     --json FILE  — additionally write the Instrument.Metrics report
                    (schema-stable JSON; byte-identical across runs
                    with the same seed AND across --jobs values) to FILE
     --jobs N     — fan independent trials over N domains through
                    Sim.Domain_pool (default: the machine's recommended
                    domain count; 1 = fully sequential, the reference
                    behaviour the parallel runs must reproduce
                    bit-for-bit — see docs/PARALLELISM.md)
     --run-json FILE — write the non-deterministic run information
                    (jobs, wall_time_s, events dispatched, GC minor
                    words + major collections, minor words per event)
                    to FILE, kept separate so the main report stays
                    byte-stable

   Output sections:
     FIGURE 2  — basic shootdown costs + least-squares fit
     TABLE 1   — lazy evaluation on/off
     TABLE 2   — kernel-pmap initiator statistics per application
     TABLE 3   — user-pmap initiator statistics (Camelot)
     TABLE 4   — responder statistics (5 of 16 CPUs sampled)
     OVERHEAD  — section 8 percentages + scaling extrapolation
     ABLATIONS — section 9 hardware support options *)

let section name =
  Printf.printf "\n================ %s ================\n%!" name

(* The shared core: Figure 2, Table 1 and the application data set that
   Tables 2-4 and the overhead analysis slice.  These three results feed
   the JSON report in both modes. *)
let run_core ~smoke ~jobs =
  section "FIGURE 2: BASIC COSTS OF TLB SHOOTDOWN";
  let fig =
    if smoke then
      Experiments.Figure2.run ~jobs ~max_procs:8 ~runs_per_point:3
        ~fit_limit:8 ()
    else Experiments.Figure2.run ~jobs ()
  in
  print_string (Experiments.Figure2.render fig);

  section "TABLE 1: EFFECT OF LAZY EVALUATION";
  let scale = if smoke then 10 else 100 in
  let t1 = Experiments.Table1.run ~jobs ~scale () in
  print_string (Experiments.Table1.render t1);

  section "TABLES 2-4: APPLICATION SHOOTDOWN STATISTICS";
  let apps = Experiments.Apps.run ~jobs ~scale () in
  print_string (Experiments.Table2.render (Experiments.Table2.of_apps apps));
  let big, small = Experiments.Table2.agora_split apps in
  Printf.printf
    "Agora bimodality: setup-phase median %.0f us (many processors), \
     run-phase median %.0f us (few)\n"
    big.Instrument.Stats.median small.Instrument.Stats.median;
  print_newline ();
  print_string (Experiments.Table3.render (Experiments.Table3.of_apps apps));
  print_newline ();
  print_string (Experiments.Table4.render (Experiments.Table4.of_apps apps));

  section "SECTION 8: OVERHEAD AND SCALING";
  let o = Experiments.Overhead.of_apps apps ~fit:fig.Experiments.Figure2.fit in
  print_string (Experiments.Overhead.render o);

  (fig, t1, apps)

let run_extensions ~jobs fig =
  section "SECTION 3: BASELINE POLICY COMPARISON";
  let b = Experiments.Baselines.run ~jobs () in
  print_string (Experiments.Baselines.render b);

  section "SCALING VALIDATION (EXTENSION)";
  let sc =
    Experiments.Scaling.run ~jobs ~runs:2 ~sizes:[ 16; 32; 48 ]
      ~fit:fig.Experiments.Figure2.fit ()
  in
  print_string (Experiments.Scaling.render sc);

  section "SECTION 8 PROPOSAL: POOL-STRUCTURED KERNEL (EXTENSION)";
  let pools = Experiments.Pools.run () in
  print_string (Experiments.Pools.render pools);

  section "SECTION 9: HARDWARE SUPPORT ABLATIONS";
  let a = Experiments.Ablations.run ~jobs () in
  print_string (Experiments.Ablations.render a)

let () =
  let smoke = ref false and json_out = ref "" in
  let run_json_out = ref "" in
  let jobs = ref (Sim.Domain_pool.default_jobs ()) in
  let spec =
    [
      ("--smoke", Arg.Set smoke, " Small deterministic run for CI.");
      ( "--json",
        Arg.Set_string json_out,
        "FILE Write the metrics report to FILE." );
      ( "--jobs",
        Arg.Set_int jobs,
        "N Trial-level parallelism (default: recommended domain count; 1 = \
         sequential)." );
      ( "--run-json",
        Arg.Set_string run_json_out,
        "FILE Write run information (jobs, wall time) to FILE." );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--smoke] [--json FILE] [--jobs N] [--run-json FILE]";
  if !jobs < 1 then begin
    Printf.eprintf "main.exe: --jobs must be >= 1\n";
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let fig, t1, apps = run_core ~smoke:!smoke ~jobs:!jobs in
  if not !smoke then run_extensions ~jobs:!jobs fig;
  let wall_time_s = Unix.gettimeofday () -. t0 in
  if !json_out <> "" then begin
    let mode = if !smoke then "smoke" else "full" in
    let report = Experiments.Bench_report.report ~mode ~fig ~t1 ~apps in
    Out_channel.with_open_bin !json_out (fun oc ->
        output_string oc (Instrument.Json.to_string report));
    Printf.printf "\nwrote %s report to %s\n" mode !json_out
  end;
  if !run_json_out <> "" then begin
    let g = Gc.quick_stat () in
    let info =
      Experiments.Bench_report.run_info ~jobs:!jobs ~wall_time_s
        ~events:(Sim.Engine.total_events ())
        ~minor_words:g.Gc.minor_words
        ~major_collections:g.Gc.major_collections
    in
    Out_channel.with_open_bin !run_json_out (fun oc ->
        output_string oc (Instrument.Json.to_string info));
    Printf.printf "wrote run info to %s\n" !run_json_out
  end;
  Printf.printf "\ntotal bench wall time: %.1f s (%d jobs)\n" wall_time_s
    !jobs
