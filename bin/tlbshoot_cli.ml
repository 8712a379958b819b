(* tlbshoot: command-line driver for the reproduction experiments.

     tlbshoot figure2 [--runs 10] [--max-procs 15] [--jobs N]
     tlbshoot table1 | tables | overhead [--scale 100] [--jobs N]
     tlbshoot baselines [--jobs N]
     tlbshoot scaling [--runs 3] [--jobs N]
     tlbshoot pools
     tlbshoot ablations [--runs 3] [--jobs N]
     tlbshoot faults [--trials 3] [--children 6] [--jobs N] [--json]
     tlbshoot batch | elide [--scale 100] [--jobs N] [--json]
     tlbshoot tester [--children 4] [--policy shootdown|none|...]
     tlbshoot trace [--workload tester] [--children 4] [--scale 10]
                    [--json] [--perfetto out.json]
     tlbshoot profile [--runs 10] [--max-procs 15] [--jobs N] [--json]
     tlbshoot explain [--top K] [--window US] [--runs 10] [--jobs N]
                      [--json] [--perfetto out.json]
     tlbshoot scale1024 [--runs 3] [--full] [--cluster-size 16] [--jobs N]
                        [--json]
     tlbshoot check [--json] [--mutant M] [--replay FILE] ...

   --jobs fans independent trials over that many OCaml domains through
   Sim.Domain_pool; the default is the machine's recommended domain
   count and the output is bit-for-bit identical at any value (see
   docs/PARALLELISM.md).  --runs, --trials and --jobs must be positive,
   as must check's --cpus, --depth and --max-schedules; --max-procs must
   be within 2..15 and --children within 1..15.  Anything else is a
   usage error. *)

open Cmdliner

let print_figure2 ~jobs ~runs ~max_procs =
  let r = Experiments.Figure2.run ~jobs ~runs_per_point:runs ~max_procs () in
  print_string (Experiments.Figure2.render r)

let print_table1 ~jobs ~scale =
  let t = Experiments.Table1.run ~jobs ~scale () in
  print_string (Experiments.Table1.render t)

let print_tables ~jobs ~scale =
  let apps = Experiments.Apps.run ~jobs ~scale () in
  print_string (Experiments.Table2.render (Experiments.Table2.of_apps apps));
  print_newline ();
  print_string (Experiments.Table3.render (Experiments.Table3.of_apps apps));
  print_newline ();
  print_string (Experiments.Table4.render (Experiments.Table4.of_apps apps))

let print_overhead ~jobs ~scale =
  let apps = Experiments.Apps.run ~jobs ~scale () in
  let fig = Experiments.Figure2.run ~jobs ~runs_per_point:3 () in
  let o =
    Experiments.Overhead.of_apps apps ~fit:fig.Experiments.Figure2.fit
  in
  print_string (Experiments.Overhead.render o)

let print_baselines ~jobs () =
  let b = Experiments.Baselines.run ~jobs () in
  print_string (Experiments.Baselines.render b)

let print_scaling ~jobs ~runs =
  let fig = Experiments.Figure2.run ~jobs ~runs_per_point:3 ~max_procs:12 () in
  let s =
    Experiments.Scaling.run ~jobs ~runs ~fit:fig.Experiments.Figure2.fit ()
  in
  print_string (Experiments.Scaling.render s)

let print_pools () =
  let p = Experiments.Pools.run () in
  print_string (Experiments.Pools.render p)

let print_ablations ~jobs ~runs =
  let a = Experiments.Ablations.run ~jobs ~runs () in
  print_string (Experiments.Ablations.render a)

let print_faults ~jobs ~trials ~children ~emit_json =
  let r = Experiments.Resilience.run ~jobs ~trials ~children () in
  if emit_json then
    print_string (Instrument.Json.to_string (Experiments.Resilience.to_json r))
  else print_string (Experiments.Resilience.render r);
  if not (Experiments.Resilience.all_green r) then exit 1

let print_batch ~jobs ~scale ~emit_json =
  let module M = Experiments.Mechanism in
  let b = M.run ~jobs ~scale M.batch_variants in
  if emit_json then print_string (Instrument.Json.to_string (M.batch_json b))
  else print_string (M.render_batch b);
  if not (M.batching_helps b) then exit 1

let print_elide ~jobs ~scale ~emit_json =
  let module M = Experiments.Mechanism in
  let e = M.run ~jobs ~scale M.elide_variants in
  if emit_json then print_string (Instrument.Json.to_string (M.elide_json e))
  else print_string (M.render_elide e);
  if not (M.elision_helps e) then exit 1

let policies =
  [
    ("shootdown", Sim.Params.default);
    ( "none",
      { Sim.Params.default with consistency = Sim.Params.No_consistency } );
    ( "timer",
      { Sim.Params.default with consistency = Sim.Params.Timer_flush 5_000.0 }
    );
    ( "hw",
      {
        Sim.Params.default with
        consistency = Sim.Params.Hw_remote;
        tlb_interlocked_refmod = true;
      } );
    ( "deferred",
      { Sim.Params.default with consistency = Sim.Params.Deferred_free 2_000.0 }
    );
  ]

let run_tester ~children ~policy:(policy, params) =
  let r = Workloads.Tlb_tester.run_fresh ~params ~children ~seed:42L () in
  Printf.printf
    "policy=%s children=%d consistent=%b violations=%d processors=%d \
     initiator=%.0f us increments=%d\n"
    policy children r.Workloads.Tlb_tester.consistent
    r.Workloads.Tlb_tester.violations r.Workloads.Tlb_tester.processors
    r.Workloads.Tlb_tester.initiator_elapsed
    r.Workloads.Tlb_tester.increments_total

(* Replay a workload with the structured span tracer attached and dump
   the stream — the machine-readable "anatomy of a shootdown".  With
   --perfetto the same stream is written as a Chrome trace-event file
   (one track per CPU) loadable in ui.perfetto.dev. *)
let run_trace ~workload ~children ~scale ~emit_json ~perfetto =
  let tr = Instrument.Trace.create () in
  Experiments.Apps.trace tr ~children ~scale workload;
  (* A capped ring that wrapped lost its oldest spans: say so on stderr
     at report time, whatever the output format, so a truncated stream
     is never mistaken for a complete one. *)
  (match Instrument.Trace.dropped_warning tr with
  | Some w -> prerr_endline w
  | None -> ());
  (match perfetto with
  | Some file ->
      let oc = open_out file in
      output_string oc (Instrument.Perfetto.to_string tr);
      close_out oc;
      Printf.printf "wrote %d spans (%d dropped) to %s\n"
        (Instrument.Trace.length tr)
        (Instrument.Trace.dropped tr)
        file
  | None ->
      if emit_json then
        print_string
          (Instrument.Json.to_string (Instrument.Trace.report_json tr))
      else print_string (Instrument.Trace.render tr))

(* The knee decomposition: figure2 with the contention profiler attached.
   Exits 1 unless the knee invariant holds (CI gate). *)
let print_profile ~jobs ~runs ~max_procs ~emit_json =
  let k = Experiments.Knee.run ~jobs ~runs_per_point:runs ~max_procs () in
  if emit_json then
    print_string (Instrument.Json.to_string (Experiments.Knee.to_json k))
  else print_string (Experiments.Knee.render k);
  if not (Experiments.Knee.knee_holds k) then exit 1

(* The tail analyzer (docs/TAIL.md): figure2 with the per-round flight
   recorder and windowed timeline attached; explains which phase — and
   which straggler responder — makes the slowest rounds slow.  Exits 1
   unless the tail gate holds: zero unattributed time everywhere, oracle
   green, and the top-K critical path is ack-wait at 16 CPUs but not at
   4 (CI gate). *)
let print_explain ~jobs ~runs ~max_procs ~top ~window ~emit_json ~perfetto =
  let t =
    Experiments.Tail.run ~jobs ~runs_per_point:runs ~max_procs ~top_k:top
      ~window ()
  in
  (match (perfetto, List.rev t.Experiments.Tail.points) with
  | Some file, p :: _ -> (
      (* the largest point carries the interesting tail: write its
         timeline as Perfetto counter tracks *)
      match Instrument.Flight.timeline p.Experiments.Tail.flight with
      | Some tl ->
          let oc = open_out file in
          output_string oc (Instrument.Perfetto.timeline_to_string tl);
          close_out oc;
          Printf.printf "wrote timeline counter tracks (%d cpus) to %s\n"
            p.Experiments.Tail.cpus file
      | None -> ())
  | None, _ | _, [] -> ());
  if emit_json then
    print_string (Instrument.Json.to_string (Experiments.Tail.to_json t))
  else print_string (Experiments.Tail.render t);
  if not (Experiments.Tail.gate_holds t) then exit 1

(* The hierarchical scale sweep (docs/TOPOLOGY.md): Figure 2 at
   4..1024 CPUs on a clustered machine, with the numaPTE-style
   cluster-targeted-shootdown ablation.  Exits 1 unless the gate holds
   (CI/nightly gate). *)
let print_scale1024 ~jobs ~runs ~full ~cluster_size ~emit_json =
  let scales =
    if full then Experiments.Scale1024.full_scales
    else Experiments.Scale1024.quick_scales
  in
  let s =
    Experiments.Scale1024.run ~jobs ~scales ~runs_per_point:runs ~cluster_size
      ()
  in
  if emit_json then
    print_string (Instrument.Json.to_string (Experiments.Scale1024.to_json s))
  else print_string (Experiments.Scale1024.render s);
  if not (Experiments.Scale1024.gate_holds s) then exit 1

(* The model checker (docs/MODELCHECK.md): exhaustively explore the
   shootdown protocol's small-configuration schedule space.  On a
   violation, write a replayable counterexample and exit 1; --replay
   re-runs a saved counterexample, optionally rendering it as a
   Perfetto timeline. *)
let run_check ~cpus ~depth ~max_schedules ~no_prune ~mutant ~scenario
    ~emit_json ~cex_out ~replay ~perfetto =
  match replay with
  | Some file -> (
      let text =
        try Ok (In_channel.with_open_text file In_channel.input_all)
        with Sys_error msg -> Error msg
      in
      match Result.bind text Check.Explorer.parse_counterexample with
      | Error msg ->
          prerr_endline msg;
          exit 2
      | Ok r ->
          let trace =
            match perfetto with
            | Some _ -> Some (Instrument.Trace.create ())
            | None -> None
          in
          let out = Check.Explorer.run_replay ?trace r in
          (match (perfetto, trace) with
          | Some file, Some tr ->
              let oc = open_out file in
              output_string oc (Instrument.Perfetto.to_string tr);
              close_out oc;
              Printf.printf "wrote %d spans to %s\n"
                (Instrument.Trace.length tr)
                file
          | _ -> ());
          (match out.Check.Scenario.verdict with
          | Check.Scenario.Pass ->
              Printf.printf
                "replay: PASS (%d decisions) — the violation did not \
                 reproduce\n"
                (List.length out.Check.Scenario.decisions);
              exit 1
          | Check.Scenario.Violation { kind; detail } ->
              Printf.printf "replay: %s violation reproduced\n  %s\n" kind
                detail);
          exit 0)
  | None -> (
      let mutant =
        match Check.Scenario.mutant_of_string mutant with
        | Ok m -> m
        | Error msg ->
            prerr_endline msg;
            exit 2
      in
      let t =
        Experiments.Modelcheck.run ~cpus ~depth ~max_schedules
          ~prune:(not no_prune) ~mutant ?scenario ()
      in
      if emit_json then
        print_string (Instrument.Json.to_string (Experiments.Modelcheck.to_json t))
      else print_string (Experiments.Modelcheck.render t);
      match Experiments.Modelcheck.first_violation t with
      | None -> ()
      | Some { result = r } ->
          let oc = open_out cex_out in
          output_string oc
            (Instrument.Json.to_string (Check.Explorer.counterexample_json r));
          close_out oc;
          if not emit_json then
            Printf.printf "counterexample written to %s (tlbshoot check \
                           --replay %s)\n"
              cex_out cex_out;
          exit 1)

(* --- cmdliner wiring --- *)

let scale_arg =
  Arg.(value & opt int 100 & info [ "scale" ] ~doc:"Workload scale percent.")

(* An integer option confined to [lo, hi]: a value outside is a usage
   error (exit 124), not an exception from inside a sweep. *)
let int_in ~lo ~hi expected =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when lo <= n && n <= hi -> Ok n
        | _ ->
            Error
              (`Msg
                (Printf.sprintf "invalid value '%s', expected %s" s expected))),
      Format.pp_print_int )

let positive = int_in ~lo:1 ~hi:max_int "a positive integer"

let jobs_arg =
  Arg.(
    value
    & opt positive (Sim.Domain_pool.default_jobs ())
    & info [ "jobs" ]
        ~doc:
          "Trial-level parallelism: independent simulations fan out over \
           this many OCaml domains (1 = sequential; output is identical \
           either way).")

let runs_arg default doc =
  Arg.(value & opt positive default & info [ "runs" ] ~doc)

(* Figure 2 needs two points for its fit, and no more children than
   [children_arg] allows. *)
let max_procs_arg =
  Arg.(
    value
    & opt (int_in ~lo:2 ~hi:15 "an integer from 2 to 15") 15
    & info [ "max-procs" ] ~doc:"Largest processor count.")

(* Every tester child needs its own CPU besides the initiator's on the
   16-CPU machine. *)
let children_arg =
  Arg.(
    value
    & opt (int_in ~lo:1 ~hi:15 "an integer from 1 to 15") 4
    & info [ "children" ] ~doc:"Tester child threads.")

let policy_arg =
  let named = List.map (fun (name, p) -> (name, (name, p))) policies in
  Arg.(
    value
    & opt (enum named) (List.assoc "shootdown" named)
    & info [ "policy" ]
        ~doc:
          (Printf.sprintf "Consistency policy: %s."
             (doc_alts_enum policies)))

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let figure2_cmd =
  cmd "figure2" "Reproduce Figure 2 (basic shootdown costs)"
    Term.(
      const (fun jobs runs max_procs -> print_figure2 ~jobs ~runs ~max_procs)
      $ jobs_arg $ runs_arg 10 "Runs per data point." $ max_procs_arg)

let table1_cmd =
  cmd "table1" "Reproduce Table 1 (lazy evaluation)"
    Term.(const (fun jobs scale -> print_table1 ~jobs ~scale) $ jobs_arg $ scale_arg)

let tables_cmd =
  cmd "tables" "Reproduce Tables 2-4 (application shootdown statistics)"
    Term.(const (fun jobs scale -> print_tables ~jobs ~scale) $ jobs_arg $ scale_arg)

let overhead_cmd =
  cmd "overhead" "Reproduce the section 8 overhead analysis"
    Term.(
      const (fun jobs scale -> print_overhead ~jobs ~scale)
      $ jobs_arg $ scale_arg)

let baselines_cmd =
  cmd "baselines" "Compare the section 3 consistency policies"
    Term.(const (fun jobs -> print_baselines ~jobs ()) $ jobs_arg)

let scaling_cmd =
  cmd "scaling" "Validate the section 8 extrapolation on larger machines"
    Term.(
      const (fun jobs runs -> print_scaling ~jobs ~runs)
      $ jobs_arg $ runs_arg 3 "Runs per point.")

let pools_cmd =
  cmd "pools" "Measure the section 8 pool-structured-kernel proposal"
    Term.(const print_pools $ const ())

let ablations_cmd =
  cmd "ablations" "Run the section 9 hardware-option ablations"
    Term.(
      const (fun jobs runs -> print_ablations ~jobs ~runs)
      $ jobs_arg $ runs_arg 3 "Runs per point.")

let faults_cmd =
  let trials_arg =
    Arg.(
      value & opt positive 3 & info [ "trials" ] ~doc:"Trials per fault plan.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the sweep counters as a JSON metrics report.")
  in
  cmd "faults"
    "Run the resilience sweep: tester + consistency oracle under injected \
     faults (exits 1 on any violation)"
    Term.(
      const (fun jobs trials children emit_json ->
          print_faults ~jobs ~trials ~children ~emit_json)
      $ jobs_arg $ trials_arg $ children_arg $ json_arg)

let batch_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the ablation counters as a JSON metrics report.")
  in
  cmd "batch"
    "Run the batching ablation: gather batching x lazy evaluation over the \
     Mach build and Parthenon, oracle attached (exits 1 unless batching \
     reduces Mach consistency rounds with every cell green)"
    Term.(
      const (fun jobs scale emit_json -> print_batch ~jobs ~scale ~emit_json)
      $ jobs_arg $ scale_arg $ json_arg)

let elide_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the ablation counters as a JSON metrics report.")
  in
  cmd "elide"
    "Run the flush-elision ablation: generation-tagged elision x lazy \
     evaluation x gather batching over the mmap-churn server and \
     Parthenon, oracle attached (exits 1 unless elision halves churn \
     consistency rounds in every combination, leaves Parthenon untouched, \
     and every cell is green)"
    Term.(
      const (fun jobs scale emit_json -> print_elide ~jobs ~scale ~emit_json)
      $ jobs_arg $ scale_arg $ json_arg)

let tester_cmd =
  cmd "tester" "Run the section 5.1 consistency tester once"
    Term.(
      const (fun children policy -> run_tester ~children ~policy)
      $ children_arg $ policy_arg)

let trace_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (enum Experiments.Apps.trace_workloads) Experiments.Apps.Tester
      & info [ "workload" ]
          ~doc:
            (Printf.sprintf "Workload to replay: %s."
               (doc_alts_enum Experiments.Apps.trace_workloads)))
  in
  let trace_scale_arg =
    Arg.(
      value & opt int 10
      & info [ "scale" ] ~doc:"Workload scale percent (applications only).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the span stream as a JSON report (schema \
             tlbshoot-spans-v1, with emitted/dropped counters).")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write the stream as a Chrome trace-event file (one track per \
             CPU) loadable in ui.perfetto.dev.")
  in
  cmd "trace"
    "Replay a workload with the span tracer attached and dump the stream"
    Term.(
      const (fun workload children scale emit_json perfetto ->
          run_trace ~workload ~children ~scale ~emit_json ~perfetto)
      $ workload_arg $ children_arg $ trace_scale_arg $ json_arg
      $ perfetto_arg)

let profile_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the decomposition as a JSON report (tlbshoot-knee-v1).")
  in
  cmd "profile"
    "Run the Figure 2 sweep with the contention profiler attached and \
     decompose where the time goes per CPU count (exits 1 unless the \
     bus-wait share rises between 4 and 16 CPUs)"
    Term.(
      const (fun jobs runs max_procs emit_json ->
          print_profile ~jobs ~runs ~max_procs ~emit_json)
      $ jobs_arg
      $ runs_arg 10 "Runs per data point."
      $ max_procs_arg $ json_arg)

let explain_cmd =
  let top_arg =
    Arg.(
      value
      & opt int Instrument.Flight.default_top_k
      & info [ "top" ] ~docv:"K"
          ~doc:"Slowest rounds retained per recorder merge.")
  in
  let window_arg =
    Arg.(
      value
      & opt float Instrument.Timeline.default_window
      & info [ "window" ] ~docv:"US"
          ~doc:"Timeline window width in simulated microseconds.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the analysis as a JSON report (tlbshoot-tail-v1, \
             embedding tlbshoot-flight-v1 and tlbshoot-timeline-v1).")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write the largest point's timeline as Perfetto counter \
             tracks (one track per series) loadable in ui.perfetto.dev.")
  in
  cmd "explain"
    "Run the Figure 2 sweep with the per-round flight recorder attached \
     and explain the tail: exact per-phase blame, straggler responders, \
     top-K slowest rounds, windowed rates (exits 1 unless blame sums \
     exactly to round latency everywhere and the top-K critical path is \
     responder ack-wait at 16 CPUs but not at 4)"
    Term.(
      const (fun jobs runs max_procs top window emit_json perfetto ->
          print_explain ~jobs ~runs ~max_procs ~top ~window ~emit_json
            ~perfetto)
      $ jobs_arg
      $ runs_arg 10 "Runs per data point."
      $ max_procs_arg $ top_arg $ window_arg $ json_arg
      $ perfetto_arg)

let scale1024_cmd =
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Sweep the full 4..1024-CPU ladder (nightly); default is the \
             quick 4/16/64/256 gate.")
  in
  let cluster_size_arg =
    Arg.(
      value & opt int 16
      & info [ "cluster-size" ] ~doc:"CPUs per cluster bus.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the sweep as a JSON report (tlbshoot-scale-v1).")
  in
  cmd "scale1024"
    "Run the Figure 2 sweep on a hierarchical 64-1024-CPU NUMA machine \
     and compare against the paper's 430 us + 55 us/processor \
     extrapolation (exits 1 unless the super-linear-deviation and \
     cluster-targeted-shootdown gates hold)"
    Term.(
      const (fun jobs runs full cluster_size emit_json ->
          print_scale1024 ~jobs ~runs ~full ~cluster_size ~emit_json)
      $ jobs_arg
      $ runs_arg 3 "Runs per scale point."
      $ full_arg $ cluster_size_arg $ json_arg)

let check_cmd =
  let cpus_arg =
    Arg.(
      value & opt positive 2
      & info [ "cpus" ]
          ~doc:
            "Requested processors per scenario (scenarios may round up; \
             the clustered one needs at least 4).")
  in
  let depth_arg =
    Arg.(
      value & opt positive 16
      & info [ "depth" ]
          ~doc:
            "Expansion bound: only the first $(docv) choice positions of \
             a schedule branch.")
  in
  let max_schedules_arg =
    Arg.(
      value
      & opt positive Check.Explorer.default_max_schedules
      & info [ "max-schedules" ] ~doc:"Schedule cap per scenario.")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable fingerprint state pruning (slower, but exact — used \
             to cross-check the reduction).")
  in
  let mutant_arg =
    Arg.(
      value & opt string "none"
      & info [ "mutant" ]
          ~doc:
            "Seed a protocol bug: none|skip-barrier|\
             skip-responder-invalidate|skip-generation-bump.  The mutants \
             must produce counterexamples; the healthy protocol must not.")
  in
  let scenario_arg =
    let named =
      List.map (fun s -> (Check.Scenario.key s, s)) Check.Scenario.all
    in
    Arg.(
      value
      & opt (some (enum named)) None
      & info [ "scenario" ]
          ~doc:
            (Printf.sprintf
               "Run one scenario instead of the whole matrix: %s."
               (doc_alts_enum named)))
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the matrix as JSON (tlbshoot-check-v1).")
  in
  let cex_arg =
    Arg.(
      value
      & opt string "check_counterexample.json"
      & info [ "counterexample" ] ~docv:"FILE"
          ~doc:"Where to write the counterexample on a violation.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-run a saved counterexample instead of exploring; exits 0 \
             iff the violation reproduces.")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "With --replay: render the replayed schedule as a Chrome \
             trace-event file for ui.perfetto.dev.")
  in
  cmd "check"
    "Model-check the shootdown protocol: exhaustively explore the \
     interleavings of small configurations (event tie-breaks, spinlock \
     acquisition order, interrupt delivery timing) and verify the \
     consistency oracle, the stale-write property and deadlock freedom \
     on every schedule (exits 1 on violation, with a replayable \
     counterexample)"
    Term.(
      const (fun cpus depth max_schedules no_prune mutant scenario emit_json
                cex_out replay perfetto ->
          run_check ~cpus ~depth ~max_schedules ~no_prune ~mutant ~scenario
            ~emit_json ~cex_out ~replay ~perfetto)
      $ cpus_arg $ depth_arg $ max_schedules_arg $ no_prune_arg $ mutant_arg
      $ scenario_arg $ json_arg $ cex_arg $ replay_arg $ perfetto_arg)

let () =
  let info =
    Cmd.info "tlbshoot" ~version:"1.0"
      ~doc:
        "Reproduction of 'Translation Lookaside Buffer Consistency: A \
         Software Approach' (ASPLOS 1989)"
  in
  let group =
    Cmd.group info
      [
        figure2_cmd;
        table1_cmd;
        tables_cmd;
        overhead_cmd;
        baselines_cmd;
        scaling_cmd;
        pools_cmd;
        ablations_cmd;
        faults_cmd;
        batch_cmd;
        elide_cmd;
        tester_cmd;
        trace_cmd;
        profile_cmd;
        explain_cmd;
        scale1024_cmd;
        check_cmd;
      ]
  in
  exit (Cmd.eval group)
