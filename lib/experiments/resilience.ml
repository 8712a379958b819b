(* Resilience sweep: the section 5.1 consistency tester run under a
   ladder of fault plans, with the TLB-consistency oracle attached.

   Each trial boots a fresh machine, attaches the oracle, runs the tester
   (one controlled shootdown plus whatever the faults provoke), and
   reports: did the tester stay consistent, did the oracle stay green,
   and how hard did the watchdog have to work (retries, escalations,
   recoveries) against how much injected adversity (dropped/delayed IPIs,
   stalls, preemptions, overflows).

   The expected shape of the table IS the result: every plan — including
   a 100% IPI blackout — stays consistent, with the recovery counters
   climbing as the fault rates do.  That is the robustness claim of
   docs/RESILIENCE.md made measurable. *)

module Tablefmt = Instrument.Tablefmt
module Metrics = Instrument.Metrics
module P = Sim.Params
module F = Sim.Fault

type plan_spec = { key : string; label : string; plan : F.plan }

(* The CI fault ladder.  [key] feeds JSON metric names, so keep it to
   [a-z0-9-]. *)
let plans =
  [
    { key = "none"; label = "no faults"; plan = F.none };
    {
      key = "drop-10";
      label = "drop 10% of IPIs";
      plan = { F.none with F.ipi_drop_rate = 0.10 };
    };
    {
      key = "drop-50";
      label = "drop 50% of IPIs";
      plan = { F.none with F.ipi_drop_rate = 0.50 };
    };
    {
      key = "blackout";
      label = "drop 100% (IPI blackout)";
      plan = { F.none with F.ipi_drop_rate = 1.0 };
    };
    {
      key = "delay";
      label = "delay 30% of IPIs ~1.5ms";
      plan =
        { F.none with F.ipi_delay_rate = 0.30; ipi_delay_mean = 1_500.0 };
    };
    {
      key = "stall";
      label = "stall 50% of responders ~3ms";
      plan =
        {
          F.none with
          F.responder_stall_rate = 0.50;
          responder_stall_mean = 3_000.0;
        };
    };
    {
      key = "preempt";
      label = "preempt 20% of lock holders ~400us";
      plan =
        {
          F.none with
          F.lock_preempt_rate = 0.20;
          lock_preempt_mean = 400.0;
        };
    };
    {
      key = "overflow";
      label = "force 50% queue overflows";
      plan = { F.none with F.queue_overflow_rate = 0.50 };
    };
    {
      (* The model checker's worst small schedules in one plan: a late
         IPI while the lock holder is preempted and the responder sits in
         a masked stall — the three delays the exhaustive 2-CPU sweep
         (docs/MODELCHECK.md) exercises one choice at a time, compounded
         here at full scale and full rates. *)
      key = "compound";
      label = "late IPIs + preempted holders + stalled responders";
      plan =
        {
          F.none with
          F.ipi_delay_rate = 0.40;
          ipi_delay_mean = 1_800.0;
          responder_stall_rate = 0.50;
          responder_stall_mean = 2_500.0;
          lock_preempt_rate = 0.35;
          lock_preempt_mean = 600.0;
        };
    };
    {
      key = "chaos";
      label = "all of the above, moderated";
      plan =
        {
          F.ipi_drop_rate = 0.15;
          ipi_delay_rate = 0.15;
          ipi_delay_mean = 1_000.0;
          responder_stall_rate = 0.20;
          responder_stall_mean = 2_000.0;
          lock_preempt_rate = 0.10;
          lock_preempt_mean = 300.0;
          queue_overflow_rate = 0.20;
          fault_seed = 0xC4A05L;
        };
    };
  ]

(* Quiet costs (no jitter, no background load) keep the sweep about the
   faults; a short watchdog keeps blackout trials from spending most of
   their simulated time spinning toward the first timeout. *)
let trial_params plan ~seed =
  {
    P.default with
    P.cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
    faults = plan;
    shoot_watchdog_timeout = 2_000.0;
    shoot_watchdog_retries = 2;
    seed;
  }

type trial = {
  tester_consistent : bool;
  tester_violations : int;
  oracle_checks : int;
  oracle_violations : int;
  retries : int;
  escalations : int;
  recoveries : int;
  injected : F.counters;
}

let run_trial spec ~children ~seed =
  let params = trial_params spec.plan ~seed in
  let machine = Vm.Machine.create ~params () in
  let oracle = Core.Consistency_oracle.attach machine.Vm.Machine.ctx in
  let res = Workloads.Tlb_tester.run machine ~children () in
  let ctx = machine.Vm.Machine.ctx in
  {
    tester_consistent = res.Workloads.Tlb_tester.consistent;
    tester_violations = res.Workloads.Tlb_tester.violations;
    oracle_checks = Core.Consistency_oracle.checks oracle;
    oracle_violations = Core.Consistency_oracle.violation_count oracle;
    retries = ctx.Core.Pmap.watchdog_retries;
    escalations = ctx.Core.Pmap.watchdog_escalations;
    recoveries = ctx.Core.Pmap.watchdog_recoveries;
    injected =
      F.total_counters
        (Array.map
           (fun (c : Sim.Cpu.t) -> c.Sim.Cpu.fault)
           machine.Vm.Machine.cpus);
  }

type row = {
  spec : plan_spec;
  trials : int;
  consistent : bool; (* tester, across all trials *)
  oracle_green : bool;
  totals : trial; (* counters summed over the trials *)
}

type t = { rows : row list; trials : int; children : int }

let sum_trials (spec, ts) =
  let zero =
    {
      tester_consistent = true;
      tester_violations = 0;
      oracle_checks = 0;
      oracle_violations = 0;
      retries = 0;
      escalations = 0;
      recoveries = 0;
      injected = F.zero_counters;
    }
  in
  let totals =
    List.fold_left
      (fun acc t ->
        {
          tester_consistent = acc.tester_consistent && t.tester_consistent;
          tester_violations = acc.tester_violations + t.tester_violations;
          oracle_checks = acc.oracle_checks + t.oracle_checks;
          oracle_violations = acc.oracle_violations + t.oracle_violations;
          retries = acc.retries + t.retries;
          escalations = acc.escalations + t.escalations;
          recoveries = acc.recoveries + t.recoveries;
          injected = F.add_counters acc.injected t.injected;
        })
      zero ts
  in
  {
    spec;
    trials = List.length ts;
    consistent = totals.tester_consistent;
    oracle_green = totals.oracle_violations = 0;
    totals;
  }

let run ?(jobs = 1) ?(trials = 3) ?(children = 6) () =
  let rows =
    List.map sum_trials
      (Sweep.grid ~jobs ~runs:trials plans (fun (spec, r) ->
           run_trial spec ~children
             ~seed:(Int64.of_int (0x5E5 + (r * 7919) + Hashtbl.hash spec.key))))
  in
  { rows; trials; children }

let render t =
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Resilience sweep: consistency tester + oracle under injected \
            faults (%d trials x %d children per plan)"
           t.trials t.children)
      ~headers:
        [
          "fault plan";
          "consistent";
          "oracle";
          "retries";
          "escalations";
          "recoveries";
          "dropped";
          "delayed";
          "stalls";
          "preempts";
          "overflows";
        ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row table
        [
          r.spec.label;
          (if r.consistent then "yes" else "NO");
          (if r.oracle_green then "green" else "RED");
          string_of_int r.totals.retries;
          string_of_int r.totals.escalations;
          string_of_int r.totals.recoveries;
          string_of_int r.totals.injected.F.dropped;
          string_of_int r.totals.injected.F.delayed;
          string_of_int r.totals.injected.F.stalls;
          string_of_int r.totals.injected.F.preempts;
          string_of_int r.totals.injected.F.overflows;
        ])
    t.rows;
  Tablefmt.render table

(* JSON export: a metrics registry of its own (the bench smoke report has
   a frozen schema; resilience counters must not leak into it). *)
let to_metrics t =
  let m = Metrics.create () in
  List.iter
    (fun r ->
      let c name v =
        Metrics.inc ~by:v
          (Metrics.counter m (Printf.sprintf "resilience/%s/%s" r.spec.key name))
      in
      c "consistent" (if r.consistent then 1 else 0);
      c "oracle_green" (if r.oracle_green then 1 else 0);
      c "tester_violations" r.totals.tester_violations;
      c "oracle_checks" r.totals.oracle_checks;
      c "oracle_violations" r.totals.oracle_violations;
      c "watchdog_retries" r.totals.retries;
      c "watchdog_escalations" r.totals.escalations;
      c "watchdog_recoveries" r.totals.recoveries;
      c "faults_dropped" r.totals.injected.F.dropped;
      c "faults_delayed" r.totals.injected.F.delayed;
      c "faults_stalls" r.totals.injected.F.stalls;
      c "faults_preempts" r.totals.injected.F.preempts;
      c "faults_overflows" r.totals.injected.F.overflows)
    t.rows;
  m

let to_json t = Metrics.to_json (to_metrics t)

let all_green t =
  List.for_all (fun r -> r.consistent && r.oracle_green) t.rows
