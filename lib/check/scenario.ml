(* The model checker's scenario matrix (see scenario.mli).

   Every scenario is written for determinism-first: quiet machine
   parameters (no cost jitter, no background stores, no random spin
   misses) make a run a pure function of the choice prefix, and every
   wait is a proper announce/join handshake, never a "long enough"
   sleep.  Bodies are kept to a few hundred simulated microseconds so
   one schedule stays in the low thousands of events — the DFS driver
   runs thousands of them. *)

module P = Sim.Params
module F = Sim.Fault
module Addr = Hw.Addr
module Task = Vm.Task
module Vm_map = Vm.Vm_map
module Machine = Vm.Machine
module Pmap = Core.Pmap
module Pmap_ops = Core.Pmap_ops

type verdict = Pass | Violation of { kind : string; detail : string }

type outcome = {
  verdict : verdict;
  decisions : Sim.Explore.decision list;
  consulted : int;
  elided : int;
  truncated : bool;
}

(* Property failures abort the scenario body; [run] folds them into the
   verdict.  Only the main thread may raise — a child thread records
   into a [fail] cell instead (an exception escaping a child thread
   would surface as a wedge, mislabelling the verdict). *)
exception Prop of string * string

let prop kind fmt =
  Printf.ksprintf (fun detail -> raise (Prop (kind, detail))) fmt

type spec = {
  sc_key : string;
  sc_label : string;
  sc_pages : int;
  sc_cpus : int -> int;
  sc_params : cpus:int -> P.t;
  sc_body : Machine.t -> Sim.Sched.thread -> unit;
}

let key s = s.sc_key
let label s = s.sc_label
let cpus s ~requested = s.sc_cpus requested
let pages s = s.sc_pages

(* --- common machinery --------------------------------------------------- *)

(* Announce gate: children bump it once their first write has landed (so
   their TLB demonstrably caches the mapping under test). *)
type gate = {
  g_lock : Sim.Sync.mutex;
  g_cv : Sim.Sync.condvar;
  mutable g_up : int;
}

let make_gate () =
  {
    g_lock = Sim.Sync.create_mutex "check-gate";
    g_cv = Sim.Sync.create_condvar "check-gate-cv";
    g_up = 0;
  }

let gate_up sched th g =
  Sim.Sync.lock sched th g.g_lock;
  g.g_up <- g.g_up + 1;
  Sim.Sync.broadcast sched g.g_cv;
  Sim.Sync.unlock sched th g.g_lock

let gate_wait sched th g n =
  Sim.Sync.lock sched th g.g_lock;
  while g.g_up < n do
    Sim.Sync.wait sched th g.g_cv g.g_lock
  done;
  Sim.Sync.unlock sched th g.g_lock

(* Arm the explorer: called by each body at the start of its protocol
   window, so choice positions 0.. land on the choices under test rather
   than on the deterministic warm-up (see Sim.Explore.arm). *)
let arm machine =
  match Sim.Engine.explore machine.Machine.eng with
  | Some ex -> Sim.Explore.arm ex
  | None -> ()

let quiet ~cpus =
  {
    P.default with
    P.ncpus = cpus;
    cost_jitter = 0.0;
    store_traffic_rate = 0.0;
    spin_miss_rate = 0.0;
  }

(* Child [i]: increment counter word [i] through the MMU every couple of
   simulated microseconds until the reprotect kills it with a write
   fault or the main thread raises [stop]. *)
let hammer vms sched task ~va ~stop ~gate i child =
  let my_va = va + (i * Addr.word_size) in
  let mine = ref 0 in
  let announced = ref false in
  let alive = ref true in
  while !alive && not !stop do
    Sim.Cpu.step (Sim.Sched.current_cpu child) 2.0;
    if not !stop then
      match Task.write_word vms child task.Task.map my_va (!mine + 1) with
      | Ok () ->
          incr mine;
          if not !announced then begin
            announced := true;
            gate_up sched child gate
          end
      | Error _ -> alive := false
  done

let read_counter vms self task ~va i =
  match Task.read_word vms self task.Task.map (va + (i * Addr.word_size)) with
  | Ok v -> v
  | Error _ -> prop "property" "counter %d unreadable after the reprotect" i

let setup_task machine self ~pages =
  let vms = machine.Machine.vms in
  let task = Task.create vms ~name:"check" in
  Task.adopt vms self task;
  let vpn = Vm_map.allocate vms self task.Task.map ~pages () in
  (match
     Task.touch_range vms self task.Task.map ~lo_vpn:vpn ~pages
       ~access:Addr.Write_access
   with
  | Ok () -> ()
  | Error _ -> prop "property" "cannot touch the counter pages");
  (task, vpn)

(* The section 5.1 tester in miniature: ncpus-1 children hammer counter
   words on the page with warm TLB entries; the main thread reprotects
   to read-only, saves the counters the instant [protect] returns, and
   any counter that advances past the copy afterwards was written
   through a stale TLB entry — the central safety property. *)
let protect_and_check ?(warmup = 40.0) ?(grace = 150.0) machine self ~task
    ~vpn ~pages =
  let vms = machine.Machine.vms and sched = machine.Machine.sched in
  let children = Array.length machine.Machine.cpus - 1 in
  let va = Addr.addr_of_vpn vpn in
  let stop = ref false in
  let gate = make_gate () in
  let threads =
    List.init children (fun i ->
        Task.spawn_thread vms task ~bound:(i + 1)
          ~name:(Printf.sprintf "mc%d" i)
          (hammer vms sched task ~va ~stop ~gate i))
  in
  gate_wait sched self gate children;
  Sim.Sched.sleep sched self warmup;
  arm machine;
  Vm_map.protect vms self task.Task.map ~lo:vpn ~hi:(vpn + pages)
    ~prot:Addr.Prot_read;
  let saved = Array.init children (read_counter vms self task ~va) in
  Sim.Sched.sleep sched self grace;
  stop := true;
  List.iter (fun th -> Sim.Sched.join sched self th) threads;
  Array.iteri
    (fun i v ->
      let f = read_counter vms self task ~va i in
      if f <> v then
        prop "stale-write"
          "CPU %d advanced counter %d from %d to %d after the protection \
           update completed"
          (i + 1) i v f)
    saved

(* --- scenario bodies ---------------------------------------------------- *)

let plain_body machine self =
  let task, vpn = setup_task machine self ~pages:1 in
  protect_and_check machine self ~task ~vpn ~pages:1

(* Two initiators on overlapping pages, driven straight into the pmap
   layer (Vm_map.protect would serialize them on the map mutex; the
   protocol's own pmap spinlock and deadlock-avoidance discipline are
   what we want to exercise).  Pages 0-1 go read-only from CPU 0,
   pages 1-2 from CPU 1, concurrently. *)
let pair_body machine self =
  let vms = machine.Machine.vms and sched = machine.Machine.sched in
  let ctx = machine.Machine.ctx in
  let task, vpn = setup_task machine self ~pages:3 in
  let pmap = task.Task.map.Vm_map.pmap in
  let gate = make_gate () in
  let fail = ref None in
  let peer =
    Task.spawn_thread vms task ~bound:1 ~name:"mc-peer" (fun th ->
        (* Warm this CPU's TLB so the overlap page really is cached
           remotely when the other initiator shoots it. *)
        (match
           Task.write_word vms th task.Task.map (Addr.addr_of_vpn (vpn + 1)) 1
         with
        | Ok () -> ()
        | Error _ -> fail := Some ("property", "peer cannot warm the overlap"));
        gate_up sched th gate;
        arm machine;
        if !fail = None then
          Pmap_ops.protect ctx (Sim.Sched.current_cpu th) pmap ~lo:(vpn + 1)
            ~hi:(vpn + 3) ~prot:Addr.Prot_read)
  in
  gate_wait sched self gate 1;
  Pmap_ops.protect ctx (Sim.Sched.current_cpu self) pmap ~lo:vpn ~hi:(vpn + 2)
    ~prot:Addr.Prot_read;
  Sim.Sched.join sched self peer;
  (match !fail with Some (k, d) -> raise (Prop (k, d)) | None -> ());
  for v = vpn to vpn + 2 do
    match Pmap_ops.extract pmap ~vpn:v with
    | Some (_, Addr.Prot_read) -> ()
    | Some (_, Addr.Prot_read_write) ->
        prop "property"
          "page %d still writable after both initiators finished" (v - vpn)
    | Some (_, Addr.Prot_none) | None ->
        prop "property" "page %d lost its mapping under concurrent protects"
          (v - vpn)
  done

(* Lazy evaluation and reuse: deallocating a never-touched page must
   skip its shootdown outright, and reusing the same virtual address
   afterwards must still be fully consistent. *)
let lazy_body machine self =
  let vms = machine.Machine.vms in
  let ctx = machine.Machine.ctx in
  let task = Task.create vms ~name:"check" in
  Task.adopt vms self task;
  let v0 = Vm_map.allocate vms self task.Task.map ~pages:1 () in
  Vm_map.deallocate vms self task.Task.map ~lo:v0 ~hi:(v0 + 1);
  if ctx.Pmap.shootdowns_skipped_lazy < 1 then
    prop "property" "deallocating an untouched page did not take the lazy skip";
  let vpn = Vm_map.allocate vms self task.Task.map ~pages:1 ~at:v0 () in
  (match
     Task.touch_range vms self task.Task.map ~lo_vpn:vpn ~pages:1
       ~access:Addr.Write_access
   with
  | Ok () -> ()
  | Error _ -> prop "property" "cannot touch the reused page");
  protect_and_check machine self ~task ~vpn ~pages:1

(* Gather batching: a deferred deallocation may legally be read through
   a stale entry until the batch flushes; after the flush the page must
   be gone on every CPU.  The flush itself runs the oracle's
   batch-flush checkpoint (Core.Gather). *)
let batch_body machine self =
  let vms = machine.Machine.vms and sched = machine.Machine.sched in
  let task, vpn = setup_task machine self ~pages:2 in
  let va0 = Addr.addr_of_vpn vpn in
  let va1 = Addr.addr_of_vpn (vpn + 1) in
  let stop = ref false in
  let flushed = ref false in
  let gate = make_gate () in
  let fail = ref None in
  let child =
    Task.spawn_thread vms task ~bound:1 ~name:"mc-batch" (fun th ->
        let mine = ref 0 in
        let announced = ref false in
        let page1_gone = ref false in
        let alive = ref true in
        while !alive && not !stop do
          Sim.Cpu.step (Sim.Sched.current_cpu th) 2.0;
          if not !stop then begin
            (match Task.write_word vms th task.Task.map va0 (!mine + 1) with
            | Ok () ->
                incr mine;
                if not !announced then begin
                  announced := true;
                  gate_up sched th gate
                end
            | Error _ -> alive := false);
            if !alive && not !page1_gone then
              match Task.read_word vms th task.Task.map va1 with
              | Ok _ ->
                  (* Legal only while the deallocation is deferred.  Once
                     the initiator has observed [finish] return, any CPU
                     reading the page goes through a translation the
                     flush's shootdown was required to destroy. *)
                  if !flushed then begin
                    page1_gone := true;
                    fail :=
                      Some
                        ( "stale-write",
                          "responder still reads the page after its \
                           batched deallocation was flushed" )
                  end
              | Error Task.Err_no_entry -> page1_gone := true
              | Error Task.Err_protection ->
                  page1_gone := true;
                  fail :=
                    Some
                      ( "property",
                        "deallocated page downgraded instead of removed" )
          end
        done)
  in
  gate_wait sched self gate 1;
  Sim.Sched.sleep sched self 30.0;
  arm machine;
  let b = Vm.Batch.start vms task.Task.map in
  Vm.Batch.deallocate b self ~lo:(vpn + 1) ~hi:(vpn + 2);
  (* The invalidation is now deferred: give the child a window in which
     reading the dead page through its cached entry is still legal. *)
  Sim.Sched.sleep sched self 20.0;
  Vm.Batch.flush b self;
  Vm.Batch.finish b self;
  flushed := true;
  (match Task.read_word vms self task.Task.map va1 with
  | Error Task.Err_no_entry -> ()
  | Ok _ ->
      prop "stale-write"
        "page still readable after its batched deallocation was flushed"
  | Error Task.Err_protection ->
      prop "property" "batched deallocation left a protected mapping");
  (* Let the responder take at least one post-flush read: its drain is
     synchronous (idle_check before dispatch), so a successful read here
     can only come through a translation the flush failed to destroy. *)
  Sim.Sched.sleep sched self 20.0;
  stop := true;
  Sim.Sched.join sched self child;
  match !fail with Some (k, d) -> raise (Prop (k, d)) | None -> ()

(* Generation-tagged flush elision (docs/ELISION.md): unmapping a page
   another CPU is actively writing must take the elision path — no
   shootdown, just a generation bump — and the bump alone must make the
   responder's warm TLB entry unusable before the unmap returns.  Any
   write that lands after [deallocate] has returned went through a
   stale entry the bump was required to kill (this is what catches the
   skip-generation-bump mutant).  Reusing the same virtual page
   afterwards must be fully consistent under the new generation. *)
let elide_body machine self =
  let vms = machine.Machine.vms and sched = machine.Machine.sched in
  let ctx = machine.Machine.ctx in
  let task, vpn = setup_task machine self ~pages:1 in
  let va = Addr.addr_of_vpn vpn in
  let stop = ref false in
  let dead = ref false in
  let gate = make_gate () in
  let fail = ref None in
  let child =
    Task.spawn_thread vms task ~bound:1 ~name:"mc-elide" (fun th ->
        let mine = ref 0 in
        let announced = ref false in
        let alive = ref true in
        while !alive && not !stop do
          Sim.Cpu.step (Sim.Sched.current_cpu th) 2.0;
          if not !stop then
            match Task.write_word vms th task.Task.map va (!mine + 1) with
            | Ok () ->
                if !dead then begin
                  alive := false;
                  fail :=
                    Some
                      ( "stale-write",
                        "responder wrote the page after its elided \
                         deallocation completed" )
                end
                else begin
                  incr mine;
                  if not !announced then begin
                    announced := true;
                    gate_up sched th gate
                  end
                end
            | Error _ -> alive := false
        done)
  in
  gate_wait sched self gate 1;
  Sim.Sched.sleep sched self 30.0;
  arm machine;
  Vm_map.deallocate vms self task.Task.map ~lo:vpn ~hi:(vpn + 1);
  dead := true;
  (* Let the responder attempt at least one post-unmap write: healthy
     runs reject it at the TLB (generation mismatch) and the child exits
     on the fault; under skip-generation-bump it succeeds. *)
  Sim.Sched.sleep sched self 20.0;
  stop := true;
  Sim.Sched.join sched self child;
  (match !fail with Some (k, d) -> raise (Prop (k, d)) | None -> ());
  if ctx.Pmap.elision_rounds_elided < 1 then
    prop "property" "unmapping a hammered page never took the elision path";
  let v2 = Vm_map.allocate vms self task.Task.map ~pages:1 ~at:vpn () in
  (match
     Task.touch_range vms self task.Task.map ~lo_vpn:v2 ~pages:1
       ~access:Addr.Write_access
   with
  | Ok () -> ()
  | Error _ -> prop "property" "cannot touch the reused page");
  protect_and_check machine self ~task ~vpn:v2 ~pages:1

(* Watchdog escalation: a total IPI blackout means no responder ever
   hears about the shootdown; the initiator's watchdog must retry, give
   up, and destroy the abandoned responders' stale entries itself before
   the update completes — convergence, not deadlock. *)
let escalate_body machine self =
  let ctx = machine.Machine.ctx in
  let task, vpn = setup_task machine self ~pages:1 in
  protect_and_check machine self ~task ~vpn ~pages:1;
  if ctx.Pmap.watchdog_escalations < 1 then
    prop "property" "a total IPI blackout never drove the watchdog to escalate"

let cluster_body = plain_body

(* --- the matrix --------------------------------------------------------- *)

let all =
  [
    {
      sc_key = "plain";
      sc_label = "one initiator, n-1 responders";
      sc_pages = 1;
      sc_cpus = (fun n -> max 2 n);
      sc_params = (fun ~cpus -> quiet ~cpus);
      sc_body = plain_body;
    };
    {
      sc_key = "pair";
      sc_label = "two initiators, overlapping pages";
      sc_pages = 3;
      sc_cpus = (fun n -> max 2 n);
      sc_params = (fun ~cpus -> quiet ~cpus);
      sc_body = pair_body;
    };
    {
      sc_key = "lazy";
      sc_label = "lazy-evaluation skip, then reuse";
      sc_pages = 1;
      sc_cpus = (fun n -> max 2 n);
      sc_params = (fun ~cpus -> quiet ~cpus);
      sc_body = lazy_body;
    };
    {
      sc_key = "batch";
      sc_label = "gather-batched deallocation";
      sc_pages = 2;
      sc_cpus = (fun n -> max 2 n);
      sc_params =
        (fun ~cpus -> { (quiet ~cpus) with P.batch_shootdowns = true });
      sc_body = batch_body;
    };
    {
      sc_key = "elide";
      sc_label = "generation-bump elision, then reuse";
      sc_pages = 1;
      sc_cpus = (fun n -> max 2 n);
      sc_params =
        (fun ~cpus -> { (quiet ~cpus) with P.elide_reuse_flushes = true });
      sc_body = elide_body;
    };
    {
      sc_key = "escalate";
      sc_label = "IPI blackout -> watchdog escalation";
      sc_pages = 1;
      sc_cpus = (fun n -> max 2 n);
      sc_params =
        (fun ~cpus ->
          {
            (quiet ~cpus) with
            P.faults = { F.none with F.ipi_drop_rate = 1.0 };
            shoot_watchdog_timeout = 400.0;
            shoot_watchdog_retries = 1;
          });
      sc_body = escalate_body;
    };
    {
      sc_key = "cluster";
      sc_label = "two-cluster topology, multicast IPIs";
      sc_pages = 1;
      sc_cpus = (fun n -> if max 4 n land 1 = 1 then max 4 n + 1 else max 4 n);
      sc_params =
        (fun ~cpus ->
          {
            (quiet ~cpus) with
            P.topology = { P.flat_topology with P.cluster_size = cpus / 2 };
            ipi_mode = P.Multicast;
          });
      sc_body = cluster_body;
    };
  ]

let find k = List.find_opt (fun s -> s.sc_key = k) all

(* --- state fingerprint -------------------------------------------------- *)

let prot_code = function
  | Addr.Prot_none -> 0
  | Addr.Prot_read -> 1
  | Addr.Prot_read_write -> 2

(* Pending delays print in hex ([%h]), which is exact: a decimal format
   rounds, and two states whose delays differ past its last digit would
   share a fingerprint, so pruning would drop schedules never explored. *)
let fingerprint (machine : Machine.t) =
  let b = Buffer.create 512 in
  let ctx = machine.Machine.ctx in
  List.iter
    (fun (dt, name) -> Buffer.add_string b (Printf.sprintf "%h:%s;" dt name))
    (Sim.Engine.pending_summary machine.Machine.eng);
  let bools tag a =
    Buffer.add_string b tag;
    Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) a
  in
  bools "A" ctx.Pmap.active;
  bools "N" ctx.Pmap.action_needed;
  bools "D" ctx.Pmap.draining;
  Buffer.add_char b 'Q';
  Array.iter
    (fun q -> Buffer.add_char b (if Core.Action.is_empty q then '0' else '1'))
    ctx.Pmap.queues;
  Buffer.add_char b 'P';
  for cpu = 0 to Pmap.ncpus ctx - 1 do
    Pmap.add_phase_label b ctx cpu;
    Buffer.add_char b ','
  done;
  let lock l =
    match Sim.Spinlock.holder l with
    | Some c -> Buffer.add_string b (string_of_int c)
    | None -> Buffer.add_char b '-'
  in
  Buffer.add_char b 'L';
  lock ctx.Pmap.kernel_pmap.Pmap.lock;
  Array.iter
    (function
      | Some (p : Pmap.t) -> lock p.Pmap.lock
      | None -> Buffer.add_char b '.')
    ctx.Pmap.current_user;
  Array.iter
    (fun mmu ->
      Buffer.add_char b '|';
      List.iter
        (fun (e : Hw.Tlb.entry) ->
          Buffer.add_string b
            (Printf.sprintf "%d.%d.%d.%d.%d%b%b;" e.Hw.Tlb.space e.Hw.Tlb.vpn
               e.Hw.Tlb.pfn (prot_code e.Hw.Tlb.prot) e.Hw.Tlb.gen
               e.Hw.Tlb.ref_bit e.Hw.Tlb.mod_bit))
        (Hw.Tlb.entries (Hw.Mmu.tlb mmu)))
    machine.Machine.mmus;
  Buffer.add_string b
    (Printf.sprintf "#%d.%d.%d.%d.%d.%d" ctx.Pmap.shootdowns_initiated
       ctx.Pmap.shootdowns_skipped_lazy ctx.Pmap.watchdog_retries
       ctx.Pmap.watchdog_escalations ctx.Pmap.watchdog_recoveries
       ctx.Pmap.elision_rounds_elided);
  Digest.string (Buffer.contents b)

(* --- mutants ------------------------------------------------------------ *)

let mutant_name = function
  | Pmap.No_mutant -> "none"
  | Pmap.Skip_barrier -> "skip-barrier"
  | Pmap.Skip_responder_invalidate -> "skip-responder-invalidate"
  | Pmap.Skip_generation_bump -> "skip-generation-bump"

let mutants =
  Pmap.
    [
      No_mutant; Skip_barrier; Skip_responder_invalidate; Skip_generation_bump;
    ]

let mutant_of_string name =
  match List.find_opt (fun m -> mutant_name m = name) mutants with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mutant %S (%s)" name
           (String.concat "|" (List.map mutant_name mutants)))

(* --- one schedule ------------------------------------------------------- *)

let run ?(mutant = Pmap.No_mutant) ?(max_decisions = 4096) ?observe ?trace
    ~cpus:requested spec ~prefix () =
  let n = spec.sc_cpus requested in
  let params = spec.sc_params ~cpus:n in
  let machine = Machine.create ~params () in
  let ctx = machine.Machine.ctx in
  ctx.Pmap.mutant <- mutant;
  (match trace with
  | Some tr ->
      ctx.Pmap.trace <- Some tr;
      Sim.Engine.set_tracer machine.Machine.eng (Some tr)
  | None -> ());
  let oracle = Core.Consistency_oracle.attach ctx in
  let ex = Sim.Explore.create ~max_decisions ~prefix ~armed:false () in
  (match observe with
  | Some f -> Sim.Explore.set_observer ex (Some (fun pos -> f machine pos))
  | None -> ());
  Sim.Engine.set_explore machine.Machine.eng (Some ex);
  Sim.Engine.set_max_events machine.Machine.eng 200_000;
  let failure =
    try
      Machine.run ~bound:0 machine (fun self -> spec.sc_body machine self);
      None
    with
    | Prop (kind, detail) -> Some (kind, detail)
    | Machine.Wedged msg -> Some ("deadlock", "machine wedged: " ^ msg)
    | Sim.Engine.Runaway r ->
        Some
          ( "deadlock",
            Printf.sprintf
              "event budget exhausted at t=%.0f after %d events (livelock \
               or deadlock)"
              r.Sim.Engine.runaway_at r.Sim.Engine.runaway_events )
    | e -> Some ("crash", Printexc.to_string e)
  in
  let verdict =
    if Core.Consistency_oracle.violation_count oracle > 0 then
      let v = List.hd (Core.Consistency_oracle.violations oracle) in
      Violation
        {
          kind = "oracle";
          detail = Core.Consistency_oracle.describe_violation v;
        }
    else
      match failure with
      | Some (kind, detail) -> Violation { kind; detail }
      | None -> Pass
  in
  {
    verdict;
    decisions = Sim.Explore.decisions ex;
    consulted = Sim.Explore.consulted ex;
    elided = Sim.Explore.elided ex;
    truncated = Sim.Explore.truncated ex;
  }
