(* Physical maps (the machine-dependent layer of the Mach VM system) and
   the shared multiprocessor context the shootdown algorithm manipulates.

   A pmap owns the hardware page tables for one address space, a lock, and
   the per-processor in-use set.  The context gathers the shootdown state
   of paper section 4: the active-processor set, the per-processor
   "action needed" flags and consistency-action queues, plus the kernel
   pmap (which is considered in use on every processor, because the kernel
   is a multi-threaded task potentially executing everywhere). *)

module Addr = Hw.Addr
module Page_table = Hw.Page_table
module Mmu = Hw.Mmu
module Tlb = Hw.Tlb

type t = {
  space_id : int; (* 0 is the kernel pmap *)
  pname : string;
  pt : Page_table.t;
  lock : Sim.Spinlock.t;
  in_use : bool array; (* per processor *)
  is_kernel : bool;
  mutable op_count : int;
  mutable destroyed : bool;
  mutable generation : int;
      (* current TLB-entry generation of this space (docs/ELISION.md):
         bumped instead of running a shootdown round when an unmap's
         stale entries can be left to die on the tag check *)
}

(* An in-flight gather batch (mmu_gather-style, see Gather): page-table
   entries in [b_ranges] have already been cleared or downgraded but the
   corresponding TLB invalidations are deferred until the batch flushes.
   Registered here so the consistency oracle can treat TLB entries covered
   by an open batch the way it treats draining responders: legal
   mid-protocol staleness, not a violation. *)
type batch = {
  b_space : int;
  mutable b_ranges : (Addr.vpn * Addr.vpn) list;
      (* coalesced [lo, hi) ranges awaiting invalidation, sorted *)
}

(* Seeded protocol mutations for the model checker's self-test: a checker
   that can never fail proves nothing, so the harness re-runs its
   scenarios with one of these deliberate bugs switched on and demands a
   counterexample.  [No_mutant] (the only value production code ever
   sees) leaves the algorithm exactly as published. *)
type mutant =
  | No_mutant
  | Skip_barrier (* initiator omits the phase-2 acknowledgement wait *)
  | Skip_responder_invalidate (* responder drains without invalidating *)
  | Skip_generation_bump (* elided unmap skips the round AND the bump,
                            leaving remote stale entries fully live *)

(* Per-CPU protocol progress for the watchdog's escalation report and the
   checker's state fingerprint: an immediate on the hot path, rendered by
   [add_phase_label] only where it is read. *)
type phase =
  | Booted
  | Activate_spin
  | Activated
  | Responding
  | Responded
  | Acquiring
  | Locked
  | Shooting
  | Updating
  | Gen_bump
  | Force_invalidate
  | Done

type ctx = {
  params : Sim.Params.t;
  eng : Sim.Engine.t;
  bus : Sim.Bus.t;
  cpus : Sim.Cpu.t array;
  mmus : Mmu.t array;
  mem : Hw.Phys_mem.t;
  xpr : Instrument.Xpr.t;
  mutable trace : Instrument.Trace.t option;
      (* structured span stream; attached by the trace CLI / workload
         drivers, None (and cost-free) otherwise *)
  mutable flight : Instrument.Flight.t option;
      (* per-round flight recorder (docs/TAIL.md); both sinks are fed by
         Probe, which costs one test per protocol point when detached *)
  (* --- shootdown state (paper Figure 1) --- *)
  active : bool array; (* processors actively translating *)
  action_needed : bool array;
  draining : bool array;
      (* set while a responder is performing its queued invalidations:
         action_needed is already cleared but the TLB is not yet clean.
         The consistency oracle must treat such CPUs as still covered. *)
  queues : Action.queue array;
  mutable oracle_check : (string -> unit) option;
      (* installed by Consistency_oracle.attach; called at
         shootdown-completion and quiescent points *)
  kernel_pmap : t;
  current_user : t option array; (* user pmap loaded on each processor *)
  pv : t Pv_list.t;
  mutable kernel_pool_pmaps : t list;
      (* section 8 restructuring: per-pool kernel pmaps.  A responder must
         treat a pool pmap it is using like the kernel pmap: the shootdown
         can target it for pmaps that are not its current user pmap. *)
  mutable next_space : int;
  mutable open_batches : batch list;
      (* gather batches whose deferred invalidations have not yet run *)
  mutable mutant : mutant;
      (* model-checker-only protocol mutation; No_mutant in real runs *)
  (* --- diagnostics, rendered only where read (phase_label, note_label) --- *)
  phase : phase array; (* per-cpu protocol progress *)
  phase_pmap : t array; (* the pmap an initiator phase names *)
  awaiting : int array; (* the responder an initiator's barrier waits on *)
  (* --- statistics --- *)
  mutable shootdowns_initiated : int;
  mutable shootdowns_skipped_lazy : int;
  mutable ipis_sent : int;
  mutable watchdog_retries : int; (* barrier timeouts answered by re-IPI *)
  mutable watchdog_escalations : int; (* responders abandoned at the barrier *)
  mutable watchdog_recoveries : int; (* responders acked after >=1 retry *)
  mutable shootdown_initiator_time : float; (* accumulated, all initiators *)
  mutable shootdown_responder_time : float; (* accumulated, all responders *)
  (* --- gather batching statistics (docs/BATCHING.md) --- *)
  mutable batches_opened : int;
  mutable batch_ops : int; (* unmap/protect operations queued into batches *)
  mutable batch_pages : int; (* pages those operations deferred *)
  mutable batch_flushes : int; (* flushes that ran a consistency round *)
  mutable batch_flushes_elided : int; (* flushes with nothing pending *)
  (* --- generation-tag elision statistics (docs/ELISION.md) --- *)
  mutable elision_rounds_elided : int; (* shootdown rounds replaced by a bump *)
  mutable elision_gen_bumps : int; (* generation bumps published *)
  mutable elision_wrap_flushes : int; (* wraparounds repaired by a real flush *)
}

let ncpus ctx = Array.length ctx.cpus

let make_pmap ~ncpus ~space_id ~name ~is_kernel =
  {
    space_id;
    pname = name;
    pt = Page_table.create ();
    lock =
      Sim.Spinlock.create ~level:Sim.Interrupt.ipl_vm
        (Printf.sprintf "pmap:%s" name);
    in_use = Array.make ncpus is_kernel;
    (* the kernel pmap is in use everywhere, always *)
    is_kernel;
    op_count = 0;
    destroyed = false;
    generation = 0;
  }

let create_ctx ~eng ~bus ~cpus ~mmus ~mem ~params ~xpr =
  let n = Array.length cpus in
  let kernel_pmap = make_pmap ~ncpus:n ~space_id:0 ~name:"kernel" ~is_kernel:true in
  let ctx =
    {
      params;
      eng;
      bus;
      cpus;
      mmus;
      mem;
      xpr;
      trace = None;
      flight = None;
      active = Array.make n false;
      action_needed = Array.make n false;
      draining = Array.make n false;
      oracle_check = None;
      queues =
        Array.init n (fun cpu_id ->
            Action.create_queue ~cpu_id ~capacity:params.action_queue_size);
      kernel_pmap;
      current_user = Array.make n None;
      pv = Pv_list.create ();
      kernel_pool_pmaps = [];
      next_space = 1;
      open_batches = [];
      mutant = No_mutant;
      phase = Array.make n Booted;
      phase_pmap = Array.make n kernel_pmap;
      awaiting = Array.make n (-1);
      shootdowns_initiated = 0;
      shootdowns_skipped_lazy = 0;
      ipis_sent = 0;
      watchdog_retries = 0;
      watchdog_escalations = 0;
      watchdog_recoveries = 0;
      shootdown_initiator_time = 0.0;
      shootdown_responder_time = 0.0;
      batches_opened = 0;
      batch_ops = 0;
      batch_pages = 0;
      batch_flushes = 0;
      batch_flushes_elided = 0;
      elision_rounds_elided = 0;
      elision_gen_bumps = 0;
      elision_wrap_flushes = 0;
    }
  in
  (* Wire the kernel space into every MMU. *)
  Array.iter
    (fun mmu ->
      Mmu.set_kernel mmu { Mmu.space_id = 0; pt = kernel_pmap.pt })
    mmus;
  ctx

let phase_name = function
  | Booted -> "-"
  | Activate_spin -> "activate-spin"
  | Activated -> "activated"
  | Responding -> "responding"
  | Responded -> "responded"
  | Acquiring -> "acquiring"
  | Locked -> "locked"
  | Shooting -> "shooting"
  | Updating -> "updating"
  | Gen_bump -> "gen-bump"
  | Force_invalidate -> "force-invalidate"
  | Done -> "done"

let add_phase_label b ctx cpu =
  let phase = ctx.phase.(cpu) in
  Buffer.add_string b (phase_name phase);
  match phase with
  | Acquiring | Locked | Shooting | Updating | Gen_bump | Force_invalidate ->
      Buffer.add_char b ':';
      Buffer.add_string b ctx.phase_pmap.(cpu).pname
  | Booted | Activate_spin | Activated | Responding | Responded | Done -> ()

(* The barrier's note, recognised by [==]: the awaited responder is in
   [awaiting], so setting the note per responder allocates nothing. *)
let await_ack_note = "await-ack"

let note_label ctx (cpu : Sim.Cpu.t) =
  let note = cpu.Sim.Cpu.note in
  if note == await_ack_note then
    Printf.sprintf "await-ack:%d" ctx.awaiting.(Sim.Cpu.id cpu)
  else note

let create_pmap ctx ~name =
  let id = ctx.next_space in
  ctx.next_space <- ctx.next_space + 1;
  make_pmap ~ncpus:(ncpus ctx) ~space_id:id ~name ~is_kernel:false

(* --- bookkeeping calls from the scheduler (paper section 2: operations
   that let the pmap module track which pmaps are in use where) --- *)

(* Install [pmap] on [cpu].  On untagged hardware nothing of the previous
   space survives in the TLB, so in-use can simply be asserted; on
   ASID-tagged hardware the previous pmap remains in use (section 10). *)
let activate ctx pmap (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  pmap.in_use.(id) <- true;
  ctx.current_user.(id) <- Some pmap;
  let mmu = ctx.mmus.(id) in
  Mmu.set_user mmu (Some { Mmu.space_id = pmap.space_id; pt = pmap.pt });
  if not ctx.params.tlb_asid_tagged then begin
    (* switching spaces flushes user translations *)
    Tlb.flush_user (Mmu.tlb mmu) ~kernel_space:0;
    Sim.Cpu.raw_delay cpu ctx.params.tlb_flush_cost
  end;
  (* If either pmap we are about to translate through is mid-update, wait
     for the update to finish: a hardware reload during the update could
     cache a half-changed mapping the initiator believes nobody holds.
     The polls take interrupts: if the lock holder is a shootdown
     initiator waiting for this processor's acknowledgement, the shootdown
     interrupt must be serviceable from inside this very loop or the two
     would deadlock. *)
  ctx.phase.(id) <- Activate_spin;
  cpu.Sim.Cpu.note <- "activate-spin";
  Sim.Cpu.prof_enter cpu Instrument.Profile.Lock_spin;
  while
    Sim.Spinlock.is_locked pmap.lock
    || Sim.Spinlock.is_locked ctx.kernel_pmap.lock
  do
    Sim.Cpu.spin_poll cpu
  done;
  Sim.Cpu.prof_leave cpu;
  ctx.phase.(id) <- Activated

let deactivate ctx pmap (cpu : Sim.Cpu.t) =
  let id = Sim.Cpu.id cpu in
  ctx.current_user.(id) <- None;
  let mmu = ctx.mmus.(id) in
  Mmu.set_user mmu None;
  if ctx.params.tlb_asid_tagged then
    (* The pmap stays "in use" until its entries are explicitly flushed
       from this TLB; the bookkeeping call is ignored (section 10). *)
    ()
  else begin
    pmap.in_use.(id) <- false;
    Tlb.flush_user (Mmu.tlb mmu) ~kernel_space:0;
    Sim.Cpu.raw_delay cpu ctx.params.tlb_flush_cost
  end

(* Is any processor other than [me] using this pmap? *)
let other_users ctx pmap ~me =
  let n = ncpus ctx in
  let rec go i =
    if i >= n then false
    else if i <> me && pmap.in_use.(i) then true
    else go (i + 1)
  in
  go 0

let pmap_of_space ctx ~space ~on:(cpu_id : int) =
  if space = 0 then Some ctx.kernel_pmap
  else
    match ctx.current_user.(cpu_id) with
    | Some p when p.space_id = space -> Some p
    | Some _ | None -> None

(* Is [vpn] of [space] covered by an open gather batch?  Such a page may
   legally linger in a TLB: its PTE was already cleared or downgraded but
   the invalidation is deferred until the batch flushes. *)
let batch_covers ctx ~space ~vpn =
  List.exists
    (fun b ->
      b.b_space = space
      && List.exists (fun (lo, hi) -> lo <= vpn && vpn < hi) b.b_ranges)
    ctx.open_batches

(* The range of virtual pages a pmap can map. *)
let vpn_bounds pmap =
  if pmap.is_kernel then
    (Addr.vpn_of_addr Addr.kernel_base, Addr.vpn_of_addr Addr.address_limit)
  else (0, Addr.vpn_of_addr Addr.user_limit)
