(* Host-time benchmark of the tlbshoot simulator (see README.md).

   One process runs one workload at --jobs 1 (its trials one after
   another in one domain, as Sim.Domain_pool runs them): a warm-up pass that
   counts toward set-up, then timed passes of the same fixed work until
   --seconds have been measured.  Host-time metrics are medians over the
   timed passes, because the host, not the simulator, is the noise
   source: single passes of identical work vary by tens of percent.

   With --trace 1 the benchmark records spans around its own calls into
   the layers' public functions and reads their public counters; nothing
   inside the program is instrumented for it.  The last line of stdout is
   one JSON object that perfbench/run.py validates and re-emits. *)

module Stats = Instrument.Stats
module Json = Instrument.Json
module Machine = Vm.Machine

let now = Unix.gettimeofday

(* --- sizes ---------------------------------------------------------- *)

type size = {
  churn : int;  (** churn rounds per shootdown trial *)
  app_scale : int;  (** percent scale of the four applications *)
  mc_cap : int;  (** schedule cap per model-check scenario *)
  micro_div : int;  (** divides every micro-kernel iteration count *)
  min_passes : int;  (** timed passes even when --seconds is reached *)
}

(* Each full-size pass takes about 2-3.5 s on a 2-core Xeon host; see
   README.md for the measurements behind these numbers. *)
let full = { churn = 60; app_scale = 60; mc_cap = 12; micro_div = 1; min_passes = 3 }

(* Self-test size: every code path, a second or so per pass. *)
let tiny = { churn = 2; app_scale = 1; mc_cap = 2; micro_div = 100; min_passes = 1 }

let mc_depth = 16
let mc_cpus = 2
let max_k = 15
let fit_limit = 12
let paper = { Stats.slope = 55.0; intercept = 430.0; r2 = 1.0 }
let fit_tolerance = 0.15

(* --- operations and checks ------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let problem msg = problems := msg :: !problems

(* An operation (trial, application run or schedule) that failed. *)
let op_failed msg =
  incr failed;
  problem msg

(* --- spans ---------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  trial : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let cur_span = ref (-1)
let cur_trial = ref ""

let add_span name t0 t1 =
  if !tracing then begin
    incr next_id;
    spans :=
      { id = !next_id; name; parent = !cur_span; trial = !cur_trial; t0; t1 }
      :: !spans
  end

(* Time [f ()] as a child of the enclosing span.  [trial] labels this
   span and everything under it. *)
let span ?trial name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !cur_span and outer_trial = !cur_trial in
    let trial = Option.value trial ~default:outer_trial in
    cur_span := id;
    cur_trial := trial;
    let t0 = now () in
    let finish () =
      spans := { id; name; parent; trial; t0; t1 = now () } :: !spans;
      cur_span := parent;
      cur_trial := outer_trial
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Durations of the spans called [name] recorded after span id [since]. *)
let durations ?(since = 0) name =
  List.filter_map
    (fun s -> if s.name = name && s.id > since then Some (s.t1 -. s.t0) else None)
    !spans

let sum = List.fold_left ( +. ) 0.0

(* --- what a pass observes ------------------------------------------- *)

type counts = {
  mutable rounds : int;  (** consistency rounds initiated *)
  mutable ipis : int;
  mutable lazy_skips : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable bus_txns : int;
  mutable bus_wait : float;  (** simulated us *)
  mutable schedules : int;
  mutable states : int;
  mutable pruned : int;
  mutable capped : int;
}

let new_counts () =
  {
    rounds = 0;
    ipis = 0;
    lazy_skips = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    bus_txns = 0;
    bus_wait = 0.0;
    schedules = 0;
    states = 0;
    pruned = 0;
    capped = 0;
  }

let add_machine c (m : Machine.t) =
  let ctx = m.Machine.ctx in
  c.rounds <- c.rounds + ctx.Core.Pmap.shootdowns_initiated;
  c.ipis <- c.ipis + ctx.Core.Pmap.ipis_sent;
  c.lazy_skips <- c.lazy_skips + ctx.Core.Pmap.shootdowns_skipped_lazy;
  Array.iter
    (fun mmu ->
      let tlb = Hw.Mmu.tlb mmu in
      c.tlb_hits <- c.tlb_hits + Hw.Tlb.hits tlb;
      c.tlb_misses <- c.tlb_misses + Hw.Tlb.misses tlb)
    m.Machine.mmus;
  c.bus_txns <- c.bus_txns + Sim.Bus.transactions m.Machine.bus;
  c.bus_wait <- c.bus_wait +. Sim.Bus.total_wait m.Machine.bus

type outcome = {
  counts : counts;
  latencies : float list;  (** simulated us of every round, in order *)
  trial_sim : (int * float) list;  (** shootdown: (k, simulate host s) *)
  fit_err_pct : float;  (** shootdown: Figure 2 fit gap, else nan *)
}

(* Latencies of every round a machine's xpr buffer recorded; a buffer
   that wrapped would silently drop rounds, so that fails the op. *)
let round_latencies what (m : Machine.t) =
  if Instrument.Xpr.overflowed m.Machine.xpr then
    op_failed (what ^ ": xpr buffer overflowed, round samples incomplete");
  Instrument.Summary.elapsed_of
    (Instrument.Summary.initiators m.Machine.xpr)

let describe_exn = function
  | Sim.Engine.Runaway r ->
      Printf.sprintf "Engine.Runaway after %d events" r.Sim.Engine.runaway_events
  | Machine.Wedged msg -> "Machine.Wedged: " ^ msg
  | e -> Printexc.to_string e

(* --- workload: shootdown (the Figure 2 sweep) ----------------------- *)

(* Figure 2's per-(k, r) seed, offset by the benchmark seed; seed 0 is
   exactly the seed experiments/figure2 uses. *)
let tester_seed ~seed k r =
  Int64.add (Int64.of_int ((1000 * k) + r + 1)) (Int64.mul seed 1_000_000L)

let fit_gap_pct (fit : Stats.fit) =
  let gap k =
    let k = float_of_int k in
    let p = paper.intercept +. (paper.slope *. k) in
    Float.abs (fit.intercept +. (fit.slope *. k) -. p) /. p
  in
  100.0 *. Stats.mean (List.init fit_limit (fun i -> gap (i + 1)))

(* The fit and report fold of experiments/figure2, on this pass's final
   rounds: the part of the pass the experiments layer owns. *)
let shoot_aggregate finals =
  span "experiments.aggregate" (fun () ->
      let points =
        List.init max_k (fun i ->
            let k = i + 1 in
            let samples =
              List.filter_map
                (fun (k', l) -> if k' = k then Some l else None)
                finals
            in
            {
              Experiments.Figure2.processors = k;
              mean = Stats.mean samples;
              std = Stats.std samples;
              samples;
            })
      in
      let fit =
        Stats.linear_fit
          (List.filter_map
             (fun p ->
               if p.Experiments.Figure2.processors <= fit_limit then
                 Some
                   ( float_of_int p.Experiments.Figure2.processors,
                     p.Experiments.Figure2.mean )
               else None)
             points)
      in
      let fig =
        {
          Experiments.Figure2.points;
          fit;
          fit_limit;
          all_consistent = true (* only passes whose trials all passed *);
        }
      in
      ignore
        (Json.to_string
           (Experiments.Bench_report.to_json ~mode:"perfbench"
              (Experiments.Bench_report.figure2_metrics fig)));
      fit)

let check_fit (fit : Stats.fit) =
  List.iter
    (fun k ->
      let kf = float_of_int k in
      let got = fit.intercept +. (fit.slope *. kf) in
      let want = paper.intercept +. (paper.slope *. kf) in
      if Float.abs (got -. want) > fit_tolerance *. want then
        problem
          (Printf.sprintf
             "figure 2 fit %.1f + %.2fk is %.0f us at k=%d, outside %.0f%% of \
              the paper's %.0f us"
             fit.intercept fit.slope got k (100.0 *. fit_tolerance) want))
    [ 1; fit_limit ]

let shoot_trial ~seed ~churn c (k, r) =
  incr attempted;
  span
    ~trial:(Printf.sprintf "k%d.r%d" k r)
    "trial"
    (fun () ->
      let what = Printf.sprintf "shootdown trial k=%d r=%d" k r in
      let params = { Sim.Params.default with seed = tester_seed ~seed k r } in
      try
        let m = span "vm.boot" (fun () -> Machine.create ~params ()) in
        let oracle = Core.Consistency_oracle.attach m.Machine.ctx in
        let t0 = now () in
        let res =
          span "simulate" (fun () ->
              Workloads.Tlb_tester.run ~churn_rounds:churn m ~children:k ())
        in
        let sim_s = now () -. t0 in
        add_machine c m;
        let lats = round_latencies what m in
        let shot_at_k =
          List.for_all
            (fun (i : Instrument.Summary.initiator) -> i.processors = k)
            (Instrument.Summary.initiators m.Machine.xpr)
        in
        if not res.Workloads.Tlb_tester.consistent then
          op_failed (what ^ ": tester saw a write through a stale entry")
        else if not (Core.Consistency_oracle.consistent oracle) then
          op_failed (what ^ ": consistency oracle found a stale TLB entry")
        else if
          res.Workloads.Tlb_tester.processors <> k
          || (not shot_at_k)
          || List.length lats <> churn + 1
        then
          op_failed
            (Printf.sprintf "%s: %d rounds, final one involving %d processors"
               what (List.length lats) res.Workloads.Tlb_tester.processors);
        Some (lats, res.Workloads.Tlb_tester.initiator_elapsed, sim_s)
      with e ->
        op_failed (what ^ ": " ^ describe_exn e);
        None)

(* One trial per k (Figure 2's run r = 0). *)
let shoot_kernel ~seed ~churn () =
  let c = new_counts () in
  let ok =
    List.filter_map
      (fun k -> Option.map (fun o -> (k, o)) (shoot_trial ~seed ~churn c (k, 0)))
      (List.init max_k (fun i -> i + 1))
  in
  let fit_err_pct =
    if List.length ok < max_k then nan
    else begin
      let fit = shoot_aggregate (List.map (fun (k, (_, final, _)) -> (k, final)) ok) in
      check_fit fit;
      fit_gap_pct fit
    end
  in
  {
    counts = c;
    latencies = List.concat_map (fun (_, (lats, _, _)) -> lats) ok;
    trial_sim = List.map (fun (k, (_, _, s)) -> (k, s)) ok;
    fit_err_pct;
  }

(* --- workload: apps (Mach build, Parthenon, Agora, Camelot) --------- *)

type app_run =
  params:Sim.Params.t -> attach:(Machine.t -> unit) -> Workloads.Driver.report

let app_runs scale : (string * app_run) list =
  [
    ( "mach",
      fun ~params ~attach ->
        Workloads.Mach_build.run ~params ~attach
          ~cfg:(Experiments.Apps.scaled_mach scale) () );
    ( "parthenon",
      fun ~params ~attach ->
        Workloads.Parthenon.run ~params ~attach
          ~cfg:(Experiments.Apps.scaled_parthenon scale) () );
    ( "agora",
      fun ~params ~attach ->
        Workloads.Agora.run ~params ~attach
          ~cfg:(Experiments.Apps.scaled_agora scale) () );
    ( "camelot",
      fun ~params ~attach ->
        Workloads.Camelot.run ~params ~attach
          ~cfg:(Experiments.Apps.scaled_camelot scale) () );
  ]

(* One application run, split into boot and simulate at its ~attach
   hook, which Driver.run calls right after Machine.create. *)
let app_trial ~params c (name, run) =
  incr attempted;
  span ~trial:name "trial" (fun () ->
      let machine = ref None and oracle = ref None in
      let t0 = now () in
      let t_attach = ref t0 in
      let attach m =
        t_attach := now ();
        machine := Some m;
        oracle := Some (Core.Consistency_oracle.attach m.Machine.ctx)
      in
      match run ~params ~attach with
      | report ->
          let t1 = now () in
          add_span "vm.boot" t0 !t_attach;
          add_span "simulate" !t_attach t1;
          (match (!machine, !oracle) with
          | Some m, Some o ->
              add_machine c m;
              ignore (round_latencies name m);
              if not (Core.Consistency_oracle.consistent o) then
                op_failed (name ^ ": consistency oracle found a stale TLB entry")
          | _ -> op_failed (name ^ ": the ~attach hook never ran"));
          Some report
      | exception e ->
          op_failed (name ^ ": " ^ describe_exn e);
          None)

let apps_kernel ~seed ~scale () =
  let c = new_counts () in
  let params =
    {
      Sim.Params.production with
      seed = Int64.add Sim.Params.production.seed seed;
    }
  in
  let reports = List.map (app_trial ~params c) (app_runs scale) in
  let latencies =
    span "experiments.aggregate" (fun () ->
        match reports with
        | [ Some mach; Some parthenon; Some agora; Some camelot ] ->
            let apps = { Experiments.Apps.mach; parthenon; agora; camelot } in
            ignore
              (Json.to_string
                 (Experiments.Bench_report.to_json ~mode:"perfbench"
                    (Experiments.Bench_report.apps_metrics apps)));
            List.concat_map
              (fun r ->
                Instrument.Summary.elapsed_of
                  (r.Workloads.Driver.kernel_initiators
                 @ r.Workloads.Driver.user_initiators))
              (Experiments.Apps.all apps)
        | _ -> [])
  in
  { counts = c; latencies; trial_sim = []; fit_err_pct = nan }

(* --- workload: modelcheck ------------------------------------------- *)

let mc_kernel ~cap () =
  let c = new_counts () in
  let rows =
    List.map
      (fun spec ->
        let r =
          span ~trial:(Check.Scenario.key spec) "check.explore" (fun () ->
              Check.Explorer.explore ~cpus:mc_cpus ~depth:mc_depth
                ~max_schedules:cap spec)
        in
        let s = r.Check.Explorer.stats in
        attempted := !attempted + s.Check.Explorer.schedules;
        c.schedules <- c.schedules + s.Check.Explorer.schedules;
        c.states <- c.states + s.Check.Explorer.states;
        c.pruned <- c.pruned + s.Check.Explorer.pruned;
        if s.Check.Explorer.capped then c.capped <- c.capped + 1;
        (match r.Check.Explorer.verdict with
        | Check.Scenario.Pass -> ()
        | Check.Scenario.Violation { kind; detail } ->
            op_failed
              (Printf.sprintf "modelcheck %s: %s: %s" (Check.Scenario.key spec)
                 kind detail));
        { Experiments.Modelcheck.result = r })
      Check.Scenario.all
  in
  span "experiments.aggregate" (fun () ->
      ignore
        (Json.to_string
           (Experiments.Modelcheck.to_json
              {
                Experiments.Modelcheck.rows;
                cpus = mc_cpus;
                depth = mc_depth;
                max_schedules = cap;
                prune = true;
                mutant = Core.Pmap.No_mutant;
              })));
  { counts = c; latencies = []; trial_sim = []; fit_err_pct = nan }

(* Explorer.explore boots its machines out of reach, so the machine-level
   counters of modelcheck come from each scenario's baseline schedule
   (empty choice prefix, the first schedule the explorer runs), caught
   through Scenario.run's ~observe hook.  Also returns the params the
   2-CPU scenarios boot with. *)
let mc_census () =
  let c = new_counts () in
  let params = ref None in
  let latencies =
    List.concat_map
      (fun spec ->
        let machine = ref None in
        let o =
          Check.Scenario.run
            ~observe:(fun m _ -> machine := Some m)
            ~cpus:mc_cpus spec ~prefix:[||] ()
        in
        let key = Check.Scenario.key spec in
        (match o.Check.Scenario.verdict with
        | Check.Scenario.Pass -> ()
        | Check.Scenario.Violation { kind; _ } ->
            problem (Printf.sprintf "baseline schedule of %s: %s" key kind));
        match !machine with
        | None ->
            problem (key ^ ": baseline schedule reached no choice point");
            []
        | Some m ->
            if !params = None && Array.length m.Machine.cpus = mc_cpus then
              params := Some m.Machine.params;
            add_machine c m;
            round_latencies key m)
      Check.Scenario.all
  in
  (c, latencies, !params)

(* --- passes ---------------------------------------------------------- *)

type pass = { wall : float; events : int; minor : float; out : outcome }

(* A pass ends with a full major collection, inside its time: each pass
   pays for the garbage it made, and the calibration loop that follows
   starts with no collection work left over. *)
let timed_pass kernel =
  span "pass" (fun () ->
      let ev0 = Sim.Engine.total_events () in
      let mw0 = Gc.minor_words () in
      let t0 = now () in
      let out = kernel () in
      Gc.full_major ();
      let t1 = now () in
      let mw1 = Gc.minor_words () in
      { wall = t1 -. t0; events = Sim.Engine.total_events () - ev0;
        minor = mw1 -. mw0; out })

(* Everything a pass of the same inputs must reproduce exactly. *)
let signature p =
  let c = p.out.counts in
  ( (p.events, c.rounds, c.ipis, c.lazy_skips, c.schedules, c.states),
    (c.tlb_hits, c.tlb_misses, c.bus_txns, c.bus_wait),
    p.out.latencies )

let check_deterministic ~minor passes =
  match passes with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun p ->
          if signature p <> signature first then
            problem "a deterministic count differs between passes";
          if minor && p.minor <> first.minor then
            problem
              (Printf.sprintf "minor words differ between passes: %.0f vs %.0f"
                 first.minor p.minor))
        rest

(* --- micro-kernels --------------------------------------------------- *)

(* Median over [reps] timed loops of [iters] operations, in ns per op. *)
let micro name ~iters f =
  span ("micro." ^ name) (fun () ->
      f (max 1 (iters / 10));
      Stats.median
        (List.init 5 (fun _ ->
             let t0 = now () in
             f iters;
             (now () -. t0) *. 1e9 /. float_of_int iters)))

let offsets =
  let prng = Sim.Prng.create 0x6865617000L in
  Array.init 1024 (fun _ -> Sim.Prng.float prng *. 100.0)

(* Steady-state pop-then-push at a fixed pending depth; the engine holds
   about one pending event per CPU. *)
let heap_push_pop ~depth iters =
  let h = Sim.Heap.create ~dummy:0 () in
  let seq = ref 0 in
  for i = 0 to depth - 1 do
    Sim.Heap.push h offsets.(i land 1023) !seq i;
    incr seq
  done;
  for i = 1 to iters do
    let t = Sim.Heap.min_time h in
    let v = Sim.Heap.pop_payload h in
    Sim.Heap.push h (t +. offsets.(i land 1023)) !seq (v + 1);
    incr seq
  done

let bus_access iters =
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng Sim.Params.default in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to iters do
        Sim.Bus.access bus ()
      done);
  Sim.Engine.run eng

let tlb_entry ~space vpn =
  {
    Hw.Tlb.space;
    vpn;
    pfn = vpn;
    prot = Hw.Addr.Prot_read_write;
    ref_bit = false;
    mod_bit = false;
    gen = 0;
    pte = Hw.Page_table.invalid_pte ();
  }

let tlb_size = Sim.Params.default.Sim.Params.tlb_size

let full_tlb () =
  let tlb = Hw.Tlb.create ~size:tlb_size in
  for v = 0 to tlb_size - 1 do
    Hw.Tlb.insert tlb (tlb_entry ~space:1 v)
  done;
  tlb

let tlb_lookups ~tlb ~base iters =
  for i = 1 to iters do
    ignore
      (Sys.opaque_identity
         (Hw.Tlb.lookup tlb ~space:1 ~vpn:(base + (i land (tlb_size - 1)))))
  done

(* Flush, refill, bump the space's generation, then (if [look]) look
   every entry up: each lookup finds a generation-stale entry and evicts
   it.  The loop without lookups is the baseline subtracted from it. *)
let tlb_stale_rounds ~look rounds =
  let tlb = Hw.Tlb.create ~size:tlb_size in
  let entries = Array.init tlb_size (tlb_entry ~space:1) in
  for g = 1 to rounds do
    Hw.Tlb.flush_all tlb;
    Array.iter (Hw.Tlb.insert tlb) entries;
    Hw.Tlb.set_generation tlb ~space:1 ~gen:g;
    if look then
      for v = 0 to tlb_size - 1 do
        ignore (Sys.opaque_identity (Hw.Tlb.lookup tlb ~space:1 ~vpn:v))
      done
  done

let chunk = Hw.Addr.l2_span / Hw.Addr.page_size

let page_table () =
  let pt = Hw.Page_table.create () in
  for v = 0 to chunk - 1 do
    ignore (Hw.Page_table.set pt v ~pfn:v ~prot:Hw.Addr.Prot_read ~wired:false)
  done;
  pt

let pt_finds pt ~base iters =
  for i = 1 to iters do
    ignore (Sys.opaque_identity (Hw.Page_table.find pt (base + (i land (chunk - 1)))))
  done

let ms_of f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (now () -. t0) *. 1e3

let micro_metrics ~div =
  let n k = max 1 (k / div) in
  let heap d = micro (Printf.sprintf "sim.heap.d%d" d) ~iters:(n 400_000) (heap_push_pop ~depth:d) in
  let hit_tlb = full_tlb () in
  let stale_look = micro "hw.tlb.stale" ~iters:(n 20_000) (tlb_stale_rounds ~look:true) in
  let stale_base = micro "hw.tlb.refill" ~iters:(n 20_000) (tlb_stale_rounds ~look:false) in
  let pt = page_table () in
  [
    ( "hw.phys_mem.create_ms",
      "ms",
      span "micro.hw.phys_mem" (fun () ->
          Stats.median
            (List.init 5 (fun _ ->
                 ms_of (fun () ->
                     Hw.Phys_mem.create
                       ~frames:Sim.Params.default.Sim.Params.phys_pages)))) );
    ("sim.heap.push_pop_ns.cpus16", "ns", heap 16);
    ("sim.heap.push_pop_ns.cpus2", "ns", heap 2);
    ("sim.bus.access_ns", "ns", micro "sim.bus" ~iters:(n 200_000) bus_access);
    ( "hw.tlb.lookup_hit_ns",
      "ns",
      micro "hw.tlb.hit" ~iters:(n 2_000_000) (tlb_lookups ~tlb:hit_tlb ~base:0) );
    ( "hw.tlb.lookup_miss_ns",
      "ns",
      micro "hw.tlb.miss" ~iters:(n 2_000_000)
        (tlb_lookups ~tlb:hit_tlb ~base:4096) );
    ( "hw.tlb.lookup_stale_ns",
      "ns",
      (stale_look -. stale_base) /. float_of_int tlb_size );
    ( "hw.page_table.find_ns.present",
      "ns",
      micro "hw.page_table.present" ~iters:(n 4_000_000) (pt_finds pt ~base:0) );
    ( "hw.page_table.find_ns.absent",
      "ns",
      micro "hw.page_table.absent" ~iters:(n 4_000_000)
        (pt_finds pt ~base:(chunk * 64)) );
  ]

(* --- probes shared by every traced run ------------------------------- *)

(* Host cost of one k-responder round: the same trials with and without
   churn, the difference per churn round, summed over each k band. *)
let core_probe ~seed ~size =
  span "probe.core" (fun () ->
      let with_churn = timed_pass (shoot_kernel ~seed ~churn:size.churn) in
      let without = timed_pass (shoot_kernel ~seed ~churn:0) in
      let sim_of p k = try List.assoc k p.out.trial_sim with Not_found -> nan in
      let marginal k = sim_of with_churn k -. sim_of without k in
      let band lo hi =
        let ks = List.init (hi - lo + 1) (fun i -> lo + i) in
        1e6 *. sum (List.map marginal ks)
        /. float_of_int (size.churn * List.length ks)
      in
      [
        ("core.round_host_us.k1_4", "us", band 1 4);
        ("core.round_host_us.k5_12", "us", band 5 fit_limit);
        ("core.round_host_us.k13_15", "us", band (fit_limit + 1) max_k);
        ( "core.round_share",
          "fraction",
          sum (List.init max_k (fun i -> marginal (i + 1))) /. with_churn.wall );
        ("core.fig2_fit_err_pct", "%", with_churn.out.fit_err_pct);
      ])

(* Returns the 2-CPU boot time it subtracts, in ms, with the metrics. *)
let check_probe ~size =
  span "probe.check" (fun () ->
      let params =
        match mc_census () with
        | _, _, Some p -> p
        | _ ->
            problem "no 2-CPU scenario params observed";
            Sim.Params.default
      in
      (* Back-to-back boots, as the explorer boots once per schedule. *)
      let boot_ms =
        span "micro.vm.boot" (fun () ->
            Stats.median
              (List.init 15 (fun _ -> ms_of (fun () -> Machine.create ~params ()))))
      in
      let since = !next_id in
      let c = (timed_pass (mc_kernel ~cap:size.mc_cap)).out.counts in
      let explore_s = sum (durations ~since "check.explore") in
      let per_schedule_ms = 1e3 *. explore_s /. float_of_int c.schedules in
      ( boot_ms,
        [
        ("check.schedules_per_s", "1/s", float_of_int c.schedules /. explore_s);
        ("check.schedules", "count", float_of_int c.schedules);
        ("check.states", "count", float_of_int c.states);
        ( "check.prune_ratio",
          "fraction",
          float_of_int c.pruned /. float_of_int c.schedules );
        ("check.capped", "count", float_of_int c.capped);
        ("check.explore_ms_per_schedule_ex_boot", "ms", per_schedule_ms -. boot_ms);
        ] ))

(* --- result ---------------------------------------------------------- *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let counter_metrics (c : counts) =
  [
    ("sim.bus.wait_us_per_txn", "sim_us", c.bus_wait /. float_of_int c.bus_txns);
    ("hw.tlb.hit_ratio", "fraction", ratio c.tlb_hits (c.tlb_hits + c.tlb_misses));
    ("core.rounds", "count", float_of_int c.rounds);
    ("core.ipis_per_round", "count", ratio c.ipis c.rounds);
    ("core.lazy_skip_ratio", "fraction", ratio c.lazy_skips (c.lazy_skips + c.rounds));
  ]

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Self time of each span name: its duration minus what its children
   cover, summed, in ms. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
      Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (prev +. (1e3 *. self)))
    !spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

(* The recorded spans as a Chrome trace-event file Perfetto opens, one
   host-time slice per span on the global track. *)
let write_spans ~t_start path =
  let tr = Instrument.Trace.create () in
  List.iter
    (fun s ->
      Instrument.Trace.emit tr ~name:s.name ~cpu:(-1)
        ~at:(1e6 *. (s.t0 -. t_start))
        ~dur:(1e6 *. (s.t1 -. s.t0))
        ~attrs:
          [
            ("id", Instrument.Trace.Int s.id);
            ("parent", Instrument.Trace.Int s.parent);
            ("trial", Instrument.Trace.Str s.trial);
          ]
        ())
    (List.rev !spans);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Instrument.Perfetto.to_string ~process_name:"perfbench" tr))

let metric_json (name, unit, v) =
  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ])

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* --- main ------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  t0 : float option;
  setup_only : bool;
  size : size;
  spans_out : string option;
}

let parse_args () =
  let workload = ref "" and seed = ref 0L and seconds = ref 10.0 in
  let trace = ref 0 and t0 = ref nan and setup_only = ref false in
  let tiny_size = ref false and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "shootdown|apps|modelcheck");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--t0", Arg.Set_float t0, "T process start (Unix time) for setup_s");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--tiny", Arg.Set tiny_size, " self-test size");
      ("--spans-out", Arg.Set_string spans_out, "FILE Perfetto span file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "shootdown"; "apps"; "modelcheck" ]) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    t0 = (if Float.is_nan !t0 then None else Some !t0);
    setup_only = !setup_only;
    size = (if !tiny_size then tiny else full);
    spans_out = (if !spans_out = "" then None else Some !spans_out);
  }

let () =
  let a = parse_args () in
  let t_start = Option.value a.t0 ~default:(now ()) in
  let kernel =
    match a.workload with
    | "shootdown" -> shoot_kernel ~seed:a.seed ~churn:a.size.churn
    | "apps" -> apps_kernel ~seed:a.seed ~scale:a.size.app_scale
    | _ -> mc_kernel ~cap:a.size.mc_cap
  in
  (* Set-up: everything up to the first timed pass, scaled by the
     calibration loop run right after it. *)
  let warm = timed_pass kernel in
  let t_ready = now () in
  let cal_ready = Calibrate.measure () in
  let setup_raw = t_ready -. t_start in
  let setup_s = setup_raw *. Calibrate.reference_s /. cal_ready in
  if a.setup_only then begin
    print_endline
      (Json.to_string ~minify:true
         (Json.Obj
            [ ("setup_s", Json.Float setup_s); ("setup_raw_s", Json.Float setup_raw) ]));
    exit 0
  end;
  (* Timed passes, each scaled by the calibration loops on either side.  A
     traced run alternates untraced and traced passes so that
     trace.overhead_frac compares like with like. *)
  let plain = ref [] and traced = ref [] and measured = ref 0.0 in
  let cal_before = ref cal_ready and cals = ref [ cal_ready ] in
  (* The high-water mark grows over many passes (modelcheck: 110 MB after
     3 to 7 passes, 142 MB after 13 to 15), so it is read after a fixed
     number of them, not after however many the host's speed allowed. *)
  let peak_rss_mb = ref nan in
  let enough l = List.length !l >= a.size.min_passes in
  while
    !measured < a.seconds || not (enough plain && ((not a.trace) || enough traced))
  do
    let want_traced = a.trace && List.length !traced < List.length !plain in
    tracing := want_traced;
    let p = timed_pass kernel in
    tracing := false;
    let cal_after = Calibrate.measure () in
    let norm =
      p.wall *. Calibrate.reference_s /. ((!cal_before +. cal_after) /. 2.0)
    in
    cal_before := cal_after;
    cals := cal_after :: !cals;
    if want_traced then traced := (p, norm) :: !traced
    else plain := (p, norm) :: !plain;
    measured := !measured +. p.wall;
    if List.length !plain + List.length !traced = a.size.min_passes then
      peak_rss_mb := vm_hwm_mb ()
  done;
  let plain_norm = List.rev_map snd !plain
  and traced_norm = List.rev_map snd !traced in
  let plain = List.rev_map fst !plain and traced = List.rev_map fst !traced in
  check_deterministic ~minor:true plain;
  check_deterministic ~minor:false (warm :: plain @ traced);
  let first = List.hd plain in
  let walls = List.map (fun p -> p.wall) plain in
  let census =
    if a.workload = "modelcheck" then Some (mc_census ()) else None
  in
  let counts, latencies =
    match census with
    | Some (c, l, _) -> (c, l)
    | None -> (first.out.counts, first.out.latencies)
  in
  if latencies = [] then problem "no consistency round was recorded";
  let metrics =
    if not a.trace then
      [
        ("setup_s", "s", setup_s);
        ("wall_s", "s", Stats.median plain_norm);
        ( "sim_events_per_s",
          "1/s",
          Stats.median
            (List.map2 (fun p norm -> float_of_int p.events /. norm) plain plain_norm) );
        ( "minor_words_per_event",
          "words",
          first.minor /. float_of_int first.events );
        ("peak_rss_mb", "MB", !peak_rss_mb);
        ("sim_round_us_p50", "sim_us", Stats.percentile latencies 50.0);
        ("sim_round_us_p90", "sim_us", Stats.percentile latencies 90.0);
      ]
    else begin
      (* Span sums of the workload's own traced passes, taken before the
         probes add spans of the same names. *)
      let pass_s = sum (List.map (fun p -> p.wall) traced) in
      let events = sum (List.map (fun p -> float_of_int p.events) traced) in
      let aggregate_ms = 1e3 *. Stats.median (durations "experiments.aggregate") in
      let boots = durations "vm.boot" in
      let simulate_s = sum (durations "simulate") in
      let explore_s = sum (durations "check.explore") in
      tracing := true;
      let micro = micro_metrics ~div:a.size.micro_div in
      let core = core_probe ~seed:a.seed ~size:a.size in
      let boot2_ms, check = check_probe ~size:a.size in
      tracing := false;
      (* Explorer.explore boots out of reach: modelcheck charges each
         schedule the probe's 2-CPU boot time, and its events run inside
         the explore spans, boots included. *)
      let boot_ms, boot_s, sim_s =
        if census = None then (1e3 *. Stats.median boots, sum boots, simulate_s)
        else
          let schedules =
            sum (List.map (fun p -> float_of_int p.out.counts.schedules) traced)
          in
          (boot2_ms, 1e-3 *. boot2_ms *. schedules, explore_s)
      in
      [
        ("vm.boot_ms", "ms", boot_ms);
        ("vm.boot_share", "fraction", boot_s /. pass_s);
        ("sim.engine.ns_per_event", "ns", 1e9 *. sim_s /. events);
        ("experiments.aggregate_ms", "ms", aggregate_ms);
        ( "trace.overhead_frac",
          "fraction",
          (Stats.median traced_norm /. Stats.median plain_norm) -. 1.0 );
      ]
      @ counter_metrics counts @ micro @ core @ check
    end
  in
  Option.iter (write_spans ~t_start) (if a.trace then a.spans_out else None);
  let failed = min !attempted (!failed + if !problems = [] then 0 else 1) in
  let correct =
    !problems = []
    && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
  in
  let record =
    Json.Obj
      [
        ("workload", Json.Str a.workload);
        ("seed", Json.Str (Int64.to_string a.seed));
        ("size", Json.Str (if a.size == tiny then "tiny" else "full"));
        ("trace", Json.Bool a.trace);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("setup_s", Json.Float setup_s);
        ("setup_raw_s", Json.Float setup_raw);
        ("warmup_pass_s", Json.Float warm.wall);
        ("passes_s", floats walls);
        ("passes_norm_s", floats plain_norm);
        ("traced_passes_s", floats (List.map (fun p -> p.wall) traced));
        ("traced_passes_norm_s", floats traced_norm);
        ("calibration_ref_s", Json.Float Calibrate.reference_s);
        ("calibration_s", floats (List.rev !cals));
        ("events_per_pass", Json.Int first.events);
        ("minor_words_per_pass", Json.Float first.minor);
        ("round_samples", Json.Int (List.length latencies));
        ( "round_samples_from",
          Json.Str
            (if census <> None then "baseline schedule of each scenario"
             else "every round of one pass") );
        ("fig2_fit_err_pct", Json.Float first.out.fit_err_pct);
        ("problems", Json.List (List.rev_map (fun s -> Json.Str s) !problems));
        ( "self_ms",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (self_times ())) );
      ]
  in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
            ("record", record);
          ]))
