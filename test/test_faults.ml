(* Fault injection, watchdog recovery, and the consistency oracle.

   The headline property is adversarial: for ANY fault plan — random IPI
   drop/delay rates, responder stalls, lock-holder preemptions, forced
   queue overflows — the Shootdown policy keeps the section 5.1 tester
   consistent and the omniscient TLB oracle green.  QCheck searches the
   plan space; a failure shrinks toward the zero-fault plan, so the
   counterexample printed is (close to) the minimal adversity that breaks
   the protocol.

   Reproduce any failure with:  QCHECK_SEED=<seed> dune exec test/test_faults.exe *)

module F = Sim.Fault
module Oracle = Core.Consistency_oracle

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
    shoot_watchdog_timeout = 2_000.0;
    shoot_watchdog_retries = 2;
  }

(* One tester trial under a plan; returns (tester result, oracle, ctx). *)
let trial ?(params = quiet) ~plan ~children ~seed () =
  let params = { params with Sim.Params.faults = plan; seed } in
  let machine = Vm.Machine.create ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  let res = Workloads.Tlb_tester.run machine ~children () in
  (res, oracle, machine.Vm.Machine.ctx)

(* ------------------------------------------------------------------ *)
(* Deterministic fixed-plan tests. *)

let ci_plans =
  [
    ("drop-25", { F.none with F.ipi_drop_rate = 0.25 });
    ("blackout", { F.none with F.ipi_drop_rate = 1.0 });
    ("delay", { F.none with F.ipi_delay_rate = 0.4; ipi_delay_mean = 1_200.0 });
    ( "stall",
      { F.none with F.responder_stall_rate = 0.5; responder_stall_mean = 2_500.0 }
    );
    ( "preempt",
      { F.none with F.lock_preempt_rate = 0.3; lock_preempt_mean = 300.0 } );
    ("overflow", { F.none with F.queue_overflow_rate = 0.6 });
  ]

let test_ci_plans_green () =
  List.iter
    (fun (name, plan) ->
      let res, oracle, _ = trial ~plan ~children:5 ~seed:1337L () in
      Alcotest.(check bool)
        (name ^ ": tester consistent")
        true res.Workloads.Tlb_tester.consistent;
      Alcotest.(check bool) (name ^ ": oracle green") true (Oracle.consistent oracle);
      Alcotest.(check bool)
        (name ^ ": oracle actually ran")
        true
        (Oracle.checks oracle > 0))
    ci_plans

(* A burst of batched kernel-buffer frees under a fault plan: gather
   flush rounds (docs/BATCHING.md) must survive the same adversity as
   ordinary shootdowns, and the oracle must stay green even though the
   batch holds translations stale on purpose between flushes. *)
let batched_trial ~plan ~seed =
  let params =
    { quiet with Sim.Params.faults = plan; seed; batch_shootdowns = true }
  in
  let machine = Vm.Machine.create ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  Vm.Machine.run machine (fun self ->
      let vms = machine.Vm.Machine.vms in
      let kmap = machine.Vm.Machine.kernel_map in
      let sched = machine.Vm.Machine.sched in
      let spinners =
        List.init 3 (fun i ->
            Sim.Sched.create_thread sched ~name:(Printf.sprintf "spin%d" i)
              (fun th ->
                for _ = 1 to 150 do
                  Sim.Cpu.kernel_step (Sim.Sched.current_cpu th) 50.0
                done))
      in
      Vm.Machine.with_kernel_batch machine self (fun batch ->
          for _ = 1 to 10 do
            let buf = Vm.Kmem.alloc_pageable vms self kmap ~pages:2 in
            (match
               Vm.Task.touch_range vms self kmap ~lo_vpn:buf ~pages:2
                 ~access:Hw.Addr.Write_access
             with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "buffer fault");
            Vm.Kmem.free ?batch vms self kmap ~vpn:buf ~pages:2
          done);
      List.iter (fun th -> Sim.Sched.join sched self th) spinners);
  (oracle, machine.Vm.Machine.ctx)

let test_ci_plans_green_batched () =
  List.iter
    (fun (name, plan) ->
      let oracle, ctx = batched_trial ~plan ~seed:1337L in
      Alcotest.(check bool)
        (name ^ ": oracle green under batching")
        true (Oracle.consistent oracle);
      Alcotest.(check bool)
        (name ^ ": a batch flush ran a round")
        true
        (ctx.Core.Pmap.batch_flushes > 0))
    ci_plans

(* A total IPI blackout forces the watchdog down the full path: retries,
   then escalation with forced remote invalidation — and the protocol
   still holds. *)
let test_blackout_escalates () =
  let plan = { F.none with F.ipi_drop_rate = 1.0 } in
  let res, oracle, ctx = trial ~plan ~children:5 ~seed:7L () in
  Alcotest.(check bool)
    "consistent despite blackout" true res.Workloads.Tlb_tester.consistent;
  Alcotest.(check bool) "oracle green" true (Oracle.consistent oracle);
  Alcotest.(check bool) "watchdog retried" true (ctx.Core.Pmap.watchdog_retries > 0);
  Alcotest.(check bool)
    "watchdog escalated" true
    (ctx.Core.Pmap.watchdog_escalations > 0)

(* The escalation report names who is missing and what it was last seen
   doing.  Under the blackout every missing responder is a tester child
   spinning in [Pmap.activate]; the labels are pinned to exact strings,
   which tools reading the span stream match on. *)
let test_escalation_diagnostics () =
  let plan = { F.none with F.ipi_drop_rate = 1.0 } in
  let params = { quiet with Sim.Params.faults = plan; seed = 7L } in
  let machine = Vm.Machine.create ~params () in
  let tr = Instrument.Trace.create () in
  machine.Vm.Machine.ctx.Core.Pmap.trace <- Some tr;
  ignore (Workloads.Tlb_tester.run machine ~children:5 ());
  let escalations =
    List.filter
      (fun (s : Instrument.Trace.span) -> s.name = "watchdog.escalation")
      (Instrument.Trace.spans tr)
  in
  Alcotest.(check int)
    "one report per escalation"
    machine.Vm.Machine.ctx.Core.Pmap.watchdog_escalations
    (List.length escalations);
  Alcotest.(check (list int))
    "missing responders" [ 1; 2; 3; 4; 5 ]
    (List.map
       (fun (s : Instrument.Trace.span) ->
         match List.assoc "missing" s.attrs with
         | Instrument.Trace.Int c -> c
         | _ -> Alcotest.fail "missing is not an int")
       escalations);
  List.iter
    (fun (s : Instrument.Trace.span) ->
      Alcotest.(check int) "reported by the initiator" 0 s.cpu;
      Alcotest.(check (list string))
        "attributes"
        [ "missing"; "pmap"; "retries"; "missing_phase"; "missing_note" ]
        (List.map fst s.attrs);
      let attr k = List.assoc k s.attrs in
      Alcotest.(check bool)
        "pmap" true
        (attr "pmap" = Instrument.Trace.Str "tester");
      Alcotest.(check bool)
        "retries" true
        (attr "retries" = Instrument.Trace.Int 2);
      Alcotest.(check bool)
        "missing_phase" true
        (attr "missing_phase" = Instrument.Trace.Str "activated");
      Alcotest.(check bool)
        "missing_note" true
        (attr "missing_note" = Instrument.Trace.Str "activate-spin"))
    escalations

(* Every typed phase and the barrier's await-ack note render to the
   label strings the escalation report and the checker fingerprint use. *)
let test_diagnostic_labels () =
  let machine = Vm.Machine.create ~params:quiet () in
  let ctx = machine.Vm.Machine.ctx in
  let pmap = Core.Pmap.create_pmap ctx ~name:"user9" in
  ctx.Core.Pmap.phase_pmap.(1) <- pmap;
  List.iter
    (fun (phase, label) ->
      ctx.Core.Pmap.phase.(1) <- phase;
      let b = Buffer.create 32 in
      Core.Pmap.add_phase_label b ctx 1;
      Alcotest.(check string) label label (Buffer.contents b))
    Core.Pmap.
      [
        (Booted, "-");
        (Activate_spin, "activate-spin");
        (Activated, "activated");
        (Responding, "responding");
        (Responded, "responded");
        (Acquiring, "acquiring:user9");
        (Locked, "locked:user9");
        (Shooting, "shooting:user9");
        (Updating, "updating:user9");
        (Gen_bump, "gen-bump:user9");
        (Force_invalidate, "force-invalidate:user9");
        (Done, "done");
      ];
  let cpu = machine.Vm.Machine.cpus.(1) in
  Alcotest.(check string) "boot note" "boot" (Core.Pmap.note_label ctx cpu);
  cpu.Sim.Cpu.note <- Core.Pmap.await_ack_note;
  ctx.Core.Pmap.awaiting.(1) <- 3;
  Alcotest.(check string)
    "await-ack note" "await-ack:3"
    (Core.Pmap.note_label ctx cpu);
  (* an equal string that is not the marker is just a note *)
  cpu.Sim.Cpu.note <- String.concat "-" [ "await"; "ack" ];
  Alcotest.(check string)
    "plain note" "await-ack"
    (Core.Pmap.note_label ctx cpu)

(* Dropped IPIs that a retry does deliver are recoveries, not escalations. *)
let test_drop_recovers () =
  let plan = { F.none with F.ipi_drop_rate = 0.5 } in
  let seeds = [ 3L; 11L; 19L; 23L ] in
  let recovered =
    List.exists
      (fun seed ->
        let res, oracle, ctx = trial ~plan ~children:6 ~seed () in
        Alcotest.(check bool)
          "consistent" true res.Workloads.Tlb_tester.consistent;
        Alcotest.(check bool) "green" true (Oracle.consistent oracle);
        ctx.Core.Pmap.watchdog_recoveries > 0)
      seeds
  in
  Alcotest.(check bool) "some retry recovered a responder" true recovered

(* Negative control: with consistency off the tester sees violations AND
   the oracle flags stale entries — proof the oracle can fail. *)
let test_oracle_flags_no_consistency () =
  let params = { quiet with Sim.Params.consistency = Sim.Params.No_consistency } in
  let res, oracle, _ = trial ~params ~plan:F.none ~children:4 ~seed:42L () in
  Alcotest.(check bool)
    "tester detects violations" false res.Workloads.Tlb_tester.consistent;
  Alcotest.(check bool)
    "oracle flags violations" true
    (Oracle.violation_count oracle > 0);
  match Oracle.violations oracle with
  | [] -> Alcotest.fail "no violation record retained"
  | v :: _ ->
      Alcotest.(check string)
        "stale rights are the violation" "excess-rights"
        (Oracle.kind_name v.Oracle.v_kind)

(* Determinism: the same plan and seed reproduce byte-identical outcomes
   (counters included) — the property that makes fuzz failures replayable. *)
let test_fault_runs_deterministic () =
  let plan =
    {
      F.none with
      F.ipi_drop_rate = 0.3;
      ipi_delay_rate = 0.2;
      ipi_delay_mean = 900.0;
      responder_stall_rate = 0.2;
      responder_stall_mean = 1_500.0;
    }
  in
  let snap () =
    let res, oracle, ctx = trial ~plan ~children:5 ~seed:77L () in
    ( res.Workloads.Tlb_tester.increments_total,
      res.Workloads.Tlb_tester.consistent,
      Oracle.checks oracle,
      Oracle.entries_checked oracle,
      ctx.Core.Pmap.watchdog_retries,
      ctx.Core.Pmap.watchdog_escalations,
      ctx.Core.Pmap.ipis_sent )
  in
  let a = snap () and b = snap () in
  Alcotest.(check bool) "identical reruns" true (a = b)

(* The zero plan produces no injector at all (the byte-identity basis). *)
let test_zero_plan_no_injector () =
  Alcotest.(check bool) "is_none" true (F.is_none F.none);
  (match F.injector F.none ~seed:5L with
  | None -> ()
  | Some _ -> Alcotest.fail "zero plan built an injector");
  let machine = Vm.Machine.create ~params:quiet () in
  Array.iter
    (fun (c : Sim.Cpu.t) ->
      match c.Sim.Cpu.fault with
      | None -> ()
      | Some _ -> Alcotest.fail "healthy CPU carries an injector")
    machine.Vm.Machine.cpus

(* ------------------------------------------------------------------ *)
(* QCheck adversarial fuzz: random plans x workload shapes, shrinking
   toward the zero plan. *)

(* Decode a small-nat list into a plan + workload: the list shrinker then
   shrinks toward [] = zero-fault plan with the smallest workload. *)
let nth l i = match List.nth_opt l i with Some v -> v | None -> 0

let decode l =
  let rate i = float_of_int (min (nth l i) 10) /. 10.0 in
  let plan =
    {
      F.ipi_drop_rate = rate 0;
      ipi_delay_rate = rate 1 /. 2.0;
      ipi_delay_mean = 800.0;
      responder_stall_rate = rate 2;
      responder_stall_mean = 2_000.0;
      lock_preempt_rate = rate 3;
      lock_preempt_mean = 300.0;
      queue_overflow_rate = rate 4;
      fault_seed = Int64.of_int (nth l 6);
    }
  in
  let children = 1 + (nth l 5 mod 6) in
  (plan, children)

let print_case l =
  let plan, children = decode l in
  Printf.sprintf
    "plan: %s | children=%d | raw=%s\n\
     reproduce: QCHECK_SEED=<printed seed> dune exec test/test_faults.exe"
    (F.describe plan) children
    (String.concat "," (List.map string_of_int l))

let fuzz_shootdown_survives_any_plan =
  QCheck.Test.make ~count:12
    ~name:"shootdown consistent + oracle green under random fault plans"
    (QCheck.make
       ~print:print_case
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (0 -- 7) small_nat))
    (fun l ->
      let plan, children = decode l in
      let seed = Int64.of_int (Hashtbl.hash l land 0xFFFF) in
      let res, oracle, _ = trial ~plan ~children ~seed () in
      res.Workloads.Tlb_tester.consistent && Oracle.consistent oracle)

let () =
  Alcotest.run "faults"
    [
      ( "fixed-plans",
        [
          Alcotest.test_case "CI fault ladder stays green" `Quick
            test_ci_plans_green;
          Alcotest.test_case "CI fault ladder stays green batched" `Quick
            test_ci_plans_green_batched;
          Alcotest.test_case "blackout escalates and recovers" `Quick
            test_blackout_escalates;
          Alcotest.test_case "escalation diagnostics" `Quick
            test_escalation_diagnostics;
          Alcotest.test_case "diagnostic labels" `Quick test_diagnostic_labels;
          Alcotest.test_case "dropped IPIs recovered by retry" `Quick
            test_drop_recovers;
          Alcotest.test_case "oracle flags No_consistency" `Quick
            test_oracle_flags_no_consistency;
          Alcotest.test_case "fault runs are deterministic" `Quick
            test_fault_runs_deterministic;
          Alcotest.test_case "zero plan has no injector" `Quick
            test_zero_plan_no_injector;
        ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest fuzz_shootdown_survives_any_plan ]);
    ]
