(* Mechanism ablations: Table-1-style sweeps of deferred shootdown
   batching (docs/BATCHING.md, `tlbshoot batch`) and generation-tagged
   flush elision (docs/ELISION.md, `tlbshoot elide`).

   A cell runs one application on a fresh production machine with the
   TLB-consistency oracle attached, under one combination of lazy
   evaluation, gather batching and elision.  Each study is a fixed list
   of cells with its own gate, table and metric keys:

   - batching: the Mach build and Parthenon, lazy x batch.  Batching must
     reduce the consistency rounds (and with them the IPIs) that the
     kernel-buffer churn costs, compose with lazy evaluation rather than
     replace it, and stay oracle-green.
   - elision: the mmap-churn server and Parthenon, lazy x batch x elide.
     On churny map/unmap traffic elision must collapse the consistency
     rounds (>= 50 % at identical offered load) in every lazy/batching
     combination; on Parthenon under the production configuration (lazy
     evaluation on) it is a pure negative control — the only rounds
     elision could touch are the startup unmaps of never-referenced
     pages, which lazy evaluation already skips outright (Table 1) —
     and every cell stays oracle-green.

   With batching and elision off the machine is byte-for-byte the
   historical one (the CI smoke gate separately diffs that against the
   frozen baseline). *)

module Metrics = Instrument.Metrics
module Summary = Instrument.Summary
module Tablefmt = Instrument.Tablefmt
module P = Sim.Params

type app = Mach | Parthenon | Churn

let app_key = function
  | Mach -> "mach"
  | Parthenon -> "parthenon"
  | Churn -> "churn"

type variant = { app : app; lazy_on : bool; batched : bool; elide : bool }

type cell = {
  rounds : int; (* consistency rounds actually initiated *)
  ipis : int;
  skipped_lazy : int;
  batches : int; (* gather batches opened *)
  batch_ops : int;
  batch_flushes : int; (* flushes that ran a round *)
  rounds_elided : int; (* rounds replaced by a generation bump *)
  gen_bumps : int;
  gen_stale_drops : int; (* stale entries evicted at lookup *)
  initiator_events : int;
  initiator_total_us : float;
  runtime_us : float;
  oracle_green : bool;
  oracle_batch_skips : int; (* entries excused by an open batch *)
  oracle_gen_skips : int; (* entries excused as generation-stale *)
}

let run_cell ~scale v =
  let params =
    {
      P.production with
      P.lazy_check = v.lazy_on;
      batch_shootdowns = v.batched;
      elide_reuse_flushes = v.elide;
    }
  in
  let oracle = ref None in
  let attach (m : Vm.Machine.t) =
    oracle := Some (Core.Consistency_oracle.attach m.Vm.Machine.ctx)
  in
  let r =
    match v.app with
    | Mach ->
        Workloads.Mach_build.run ~params ~attach ~cfg:(Apps.scaled_mach scale)
          ()
    | Parthenon ->
        Workloads.Parthenon.run ~params ~attach
          ~cfg:(Apps.scaled_parthenon scale) ()
    | Churn ->
        Workloads.Mmap_churn.run ~params ~attach ~cfg:(Apps.scaled_churn scale)
          ()
  in
  let ke = Summary.elapsed_of r.Workloads.Driver.kernel_initiators in
  let ue = Summary.elapsed_of r.Workloads.Driver.user_initiators in
  let green, batch_skips, gen_skips =
    match !oracle with
    | Some o ->
        ( Core.Consistency_oracle.consistent o,
          Core.Consistency_oracle.batch_entries_skipped o,
          Core.Consistency_oracle.gen_entries_skipped o )
    | None -> (false, 0, 0)
  in
  {
    rounds = r.Workloads.Driver.shootdowns_initiated;
    ipis = r.Workloads.Driver.ipis_sent;
    skipped_lazy = r.Workloads.Driver.skipped_lazy;
    batches = r.Workloads.Driver.batches_opened;
    batch_ops = r.Workloads.Driver.batch_ops;
    batch_flushes = r.Workloads.Driver.batch_flushes;
    rounds_elided = r.Workloads.Driver.rounds_elided;
    gen_bumps = r.Workloads.Driver.gen_bumps;
    gen_stale_drops = r.Workloads.Driver.gen_stale_drops;
    initiator_events = List.length ke + List.length ue;
    initiator_total_us =
      List.fold_left ( +. ) 0.0 ke +. List.fold_left ( +. ) 0.0 ue;
    runtime_us = r.Workloads.Driver.runtime;
    oracle_green = green;
    oracle_batch_skips = batch_skips;
    oracle_gen_skips = gen_skips;
  }

type t = { rows : (variant * cell) list; scale : int }

(* Every cell boots a fresh machine from its variant alone, so the cells
   fan out through the domain pool (docs/PARALLELISM.md). *)
let run ~jobs ~scale variants =
  {
    rows =
      List.combine variants
        (Sim.Domain_pool.map_trials ~jobs (run_cell ~scale) variants);
    scale;
  }

let cell t v = List.assoc v t.rows

(* Rounds saved, in percent, by turning a mechanism on: (off, on) cells. *)
let round_reduction (off, on_) =
  if off.rounds <= 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int on_.rounds /. float_of_int off.rounds))

let all_green t = List.for_all (fun (_, c) -> c.oracle_green) t.rows
let on_off b = if b then "on" else "off"
let yes_no b = if b then "yes" else "no"

(* Fixed sweep order: lazy off/on, then batching off/on. *)
let lazy_x_batch app =
  List.concat_map
    (fun lazy_on ->
      List.map
        (fun batched -> { app; lazy_on; batched; elide = false })
        [ false; true ])
    [ false; true ]

let table ~title ~headers row t =
  let table = Tablefmt.create ~title ~headers in
  List.iter (fun (v, c) -> Tablefmt.add_row table (row v c)) t.rows;
  Tablefmt.render table

(* JSON export: a registry of its own — the bench smoke report's schema
   is frozen, so these counters must not leak into it.  Metric names are
   [prefix/<variant key>/<field>], [a-z0-9-/] only. *)
let to_json ~prefix ~key fields t =
  let m = Metrics.create () in
  List.iter
    (fun (v, c) ->
      List.iter
        (fun (field, value) ->
          let name = Printf.sprintf "%s/%s/%s" prefix (key v) field in
          match value with
          | `Count n -> Metrics.inc ~by:n (Metrics.counter m name)
          | `Gauge g -> Metrics.set (Metrics.gauge m name) g)
        (fields c))
    t.rows;
  Metrics.to_json m

(* ------------------------------------------------------------------ *)
(* Batching: lazy x batch over the Mach build and Parthenon. *)

let batch_variants = lazy_x_batch Mach @ lazy_x_batch Parthenon

let batch_pair t app lazy_on =
  let off = { app; lazy_on; batched = false; elide = false } in
  (cell t off, cell t { off with batched = true })

(* The acceptance claim: on the Mach build (the kernel-buffer-churn
   workload batching targets) batching must reduce the number of
   consistency rounds in both lazy settings, with every cell green. *)
let batching_helps t =
  all_green t
  && List.for_all
       (fun lazy_on ->
         let off, on_ = batch_pair t Mach lazy_on in
         on_.rounds < off.rounds)
       [ false; true ]

let render_batch t =
  table
    ~title:
      (Printf.sprintf
         "Batching ablation: gather batching x lazy evaluation (scale %d%%)"
         t.scale)
    ~headers:
      [
        "workload"; "lazy"; "batch"; "rounds"; "IPIs"; "skipped"; "batches";
        "ops"; "flushes"; "initiator"; "oracle";
      ]
    (fun v c ->
      [
        app_key v.app;
        yes_no v.lazy_on;
        yes_no v.batched;
        string_of_int c.rounds;
        string_of_int c.ipis;
        string_of_int c.skipped_lazy;
        string_of_int c.batches;
        string_of_int c.batch_ops;
        string_of_int c.batch_flushes;
        Tablefmt.us c.initiator_total_us;
        (if c.oracle_green then "green" else "RED");
      ])
    t
  ^ Printf.sprintf
      "\n\
       batching cuts consistency rounds by %.0f%% (Mach, lazy on) / %.0f%% \
       (Mach, lazy off); Parthenon %.0f%% / %.0f%%\n"
      (round_reduction (batch_pair t Mach true))
      (round_reduction (batch_pair t Mach false))
      (round_reduction (batch_pair t Parthenon true))
      (round_reduction (batch_pair t Parthenon false))

let batch_json =
  to_json ~prefix:"batching"
    ~key:(fun v ->
      Printf.sprintf "%s/lazy-%s/batch-%s" (app_key v.app) (on_off v.lazy_on)
        (on_off v.batched))
    (fun c ->
      [
        ("rounds", `Count c.rounds);
        ("ipis_sent", `Count c.ipis);
        ("skipped_lazy", `Count c.skipped_lazy);
        ("batches_opened", `Count c.batches);
        ("batch_ops", `Count c.batch_ops);
        ("batch_flushes", `Count c.batch_flushes);
        ("initiator_events", `Count c.initiator_events);
        ("oracle_green", `Count (if c.oracle_green then 1 else 0));
        ("oracle_batch_skips", `Count c.oracle_batch_skips);
        ("initiator_total_us", `Gauge c.initiator_total_us);
        ("runtime_us", `Gauge c.runtime_us);
      ])

(* ------------------------------------------------------------------ *)
(* Elision: lazy x batch x elide over mmap churn and Parthenon. *)

let elide_variants =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun v -> [ v; { v with elide = true } ])
        (lazy_x_batch app))
    [ Churn; Parthenon ]

let elide_pair t app lazy_on batched =
  let off = { app; lazy_on; batched; elide = false } in
  (cell t off, cell t { off with elide = true })

(* The acceptance claim (exit-1 gated by `tlbshoot elide`):

   - every cell oracle-green;
   - churn: elision halves the consistency rounds (>= 50 % reduction) in
     all four lazy x batching combinations, and actually elided rounds;
   - Parthenon under lazy evaluation (the production configuration): a
     negative control — its only unmaps of in-use pages happen at task
     teardown after every worker has joined, and its startup unmaps of
     never-referenced pages are already skipped by the lazy check, so
     the run must be untouched: identical round and IPI counts, zero
     elisions.  (With lazy evaluation off those startup rounds come
     back, and elision quite correctly elides them — so the lazy-off
     Parthenon cells are only required to stay green.) *)
let elision_helps t =
  all_green t
  && List.for_all
       (fun (lazy_on, batched) ->
         let off, on_ = elide_pair t Churn lazy_on batched in
         on_.rounds_elided > 0 && 2 * on_.rounds <= off.rounds)
       [ (false, false); (false, true); (true, false); (true, true) ]
  && List.for_all
       (fun batched ->
         let off, on_ = elide_pair t Parthenon true batched in
         on_.rounds = off.rounds && on_.ipis = off.ipis
         && on_.rounds_elided = 0)
       [ false; true ]

let render_elide t =
  table
    ~title:
      (Printf.sprintf
         "Elision ablation: generation tags x lazy evaluation x batching \
          (scale %d%%)"
         t.scale)
    ~headers:
      [
        "workload"; "lazy"; "batch"; "elide"; "rounds"; "IPIs"; "elided";
        "bumps"; "stale drops"; "runtime"; "oracle";
      ]
    (fun v c ->
      [
        app_key v.app;
        yes_no v.lazy_on;
        yes_no v.batched;
        yes_no v.elide;
        string_of_int c.rounds;
        string_of_int c.ipis;
        string_of_int c.rounds_elided;
        string_of_int c.gen_bumps;
        string_of_int c.gen_stale_drops;
        Tablefmt.us c.runtime_us;
        (if c.oracle_green then "green" else "RED");
      ])
    t
  ^ Printf.sprintf
      "\n\
       elision cuts consistency rounds by %.0f%% (churn, plain) / %.0f%% \
       (churn, lazy) / %.0f%% (churn, lazy+batch); Parthenon (negative \
       control) %.0f%%\n"
      (round_reduction (elide_pair t Churn false false))
      (round_reduction (elide_pair t Churn true false))
      (round_reduction (elide_pair t Churn true true))
      (round_reduction (elide_pair t Parthenon true false))

let elide_json =
  to_json ~prefix:"elision"
    ~key:(fun v ->
      Printf.sprintf "%s/lazy-%s/batch-%s/elide-%s" (app_key v.app)
        (on_off v.lazy_on) (on_off v.batched) (on_off v.elide))
    (fun c ->
      [
        ("rounds", `Count c.rounds);
        ("ipis_sent", `Count c.ipis);
        ("skipped_lazy", `Count c.skipped_lazy);
        ("rounds_elided", `Count c.rounds_elided);
        ("gen_bumps", `Count c.gen_bumps);
        ("gen_stale_drops", `Count c.gen_stale_drops);
        ("oracle_green", `Count (if c.oracle_green then 1 else 0));
        ("oracle_gen_skips", `Count c.oracle_gen_skips);
        ("runtime_us", `Gauge c.runtime_us);
      ])
