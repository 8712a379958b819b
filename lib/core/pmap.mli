(** Physical maps — the machine-dependent layer of the Mach VM system —
    and the shared shootdown context (paper sections 2 and 4).

    A pmap owns the hardware page tables for one address space, its lock,
    and the per-processor in-use set.  The context gathers the state the
    shootdown algorithm manipulates: the active-processor set, per-CPU
    "action needed" flags, per-CPU consistency-action queues, and the
    kernel pmap (in use on every processor, always). *)

type t = {
  space_id : int;  (** 0 is the kernel pmap *)
  pname : string;
  pt : Hw.Page_table.t;
  lock : Sim.Spinlock.t;
  in_use : bool array;  (** per processor *)
  is_kernel : bool;
  mutable op_count : int;
  mutable destroyed : bool;
  mutable generation : int;
      (** current TLB-entry generation of this space (docs/ELISION.md);
          bumped in place of a shootdown round by flush elision *)
}

type batch = {
  b_space : int;
  mutable b_ranges : (Hw.Addr.vpn * Hw.Addr.vpn) list;
      (** coalesced [lo, hi) ranges awaiting invalidation, sorted *)
}
(** An in-flight gather batch (mmu_gather-style — see [Gather]): the
    page-table entries in [b_ranges] are already cleared or downgraded but
    their TLB invalidations are deferred until the batch flushes.  The
    consistency oracle treats entries covered by an open batch like those
    of a draining responder: legal mid-protocol staleness. *)

(** Seeded protocol mutations for the model checker's self-test: a
    checker that can never fail proves nothing, so the harness re-runs
    its scenarios with one of these deliberate bugs switched on and
    demands a counterexample.  [No_mutant] — the only value production
    code ever sets — leaves the algorithm exactly as published. *)
type mutant =
  | No_mutant
  | Skip_barrier  (** initiator omits the phase-2 acknowledgement wait *)
  | Skip_responder_invalidate
      (** responder drains its queue without touching its TLB *)
  | Skip_generation_bump
      (** an elided unmap skips the shootdown round {e and} the
          generation bump, leaving remote stale entries fully live *)

(** Per-CPU protocol progress for diagnostics, stored as an immediate and
    rendered by {!add_phase_label} only where it is read. *)
type phase =
  | Booted  (** ["-"] *)
  | Activate_spin  (** ["activate-spin"]: waiting out a pmap update *)
  | Activated  (** ["activated"] *)
  | Responding  (** ["responding"]: in the shootdown interrupt handler *)
  | Responded  (** ["responded"] *)
  | Acquiring  (** ["acquiring:<pmap>"]: initiator taking the pmap lock *)
  | Locked  (** ["locked:<pmap>"] *)
  | Shooting  (** ["shooting:<pmap>"]: queueing, IPIs, ack barrier *)
  | Updating  (** ["updating:<pmap>"]: the page-table change *)
  | Gen_bump  (** ["gen-bump:<pmap>"]: an elided round's bump *)
  | Force_invalidate  (** ["force-invalidate:<pmap>"] *)
  | Done  (** ["done"] *)

type ctx = {
  params : Sim.Params.t;
  eng : Sim.Engine.t;
  bus : Sim.Bus.t;
  cpus : Sim.Cpu.t array;
  mmus : Hw.Mmu.t array;
  mem : Hw.Phys_mem.t;
  xpr : Instrument.Xpr.t;
  mutable trace : Instrument.Trace.t option;
      (** structured span stream; [None] (and cost-free) unless attached *)
  mutable flight : Instrument.Flight.t option;
      (** per-round flight recorder (docs/TAIL.md); [None] unless
          attached.  Both sinks are fed by [Probe], whose detached cost is
          one test per protocol point *)
  active : bool array;  (** processors actively translating *)
  action_needed : bool array;
  draining : bool array;
      (** set while a responder performs its queued invalidations
          (action_needed already cleared, TLB not yet clean); the
          consistency oracle treats such CPUs as still covered *)
  queues : Action.queue array;
  mutable oracle_check : (string -> unit) option;
      (** installed by {!Consistency_oracle.attach}; invoked at
          shootdown-completion and quiescent points with a reason label *)
  kernel_pmap : t;
  current_user : t option array;  (** user pmap loaded per processor *)
  pv : t Pv_list.t;
  mutable kernel_pool_pmaps : t list;
      (** section 8 pool-structured kernel: pool pmaps responders must
          also stall on while locked *)
  mutable next_space : int;
  mutable open_batches : batch list;
      (** gather batches whose deferred invalidations have not yet run *)
  mutable mutant : mutant;
      (** model-checker-only protocol mutation; [No_mutant] in real runs *)
  phase : phase array;  (** per-CPU protocol progress (diagnostic) *)
  phase_pmap : t array;
      (** the pmap named by [Acquiring] .. [Force_invalidate] *)
  awaiting : int array;  (** the responder named by {!await_ack_note} *)
  mutable shootdowns_initiated : int;
  mutable shootdowns_skipped_lazy : int;
  mutable ipis_sent : int;
  mutable watchdog_retries : int;
      (** ack-barrier timeouts answered by a re-interrupt *)
  mutable watchdog_escalations : int;
      (** responders abandoned at the barrier after exhausting retries *)
  mutable watchdog_recoveries : int;
      (** responders that acked after at least one retry *)
  mutable shootdown_initiator_time : float;
  mutable shootdown_responder_time : float;
  mutable batches_opened : int;
  mutable batch_ops : int;
      (** unmap/protect operations queued into gather batches *)
  mutable batch_pages : int;  (** pages those operations deferred *)
  mutable batch_flushes : int;  (** flushes that ran a consistency round *)
  mutable batch_flushes_elided : int;
      (** batch flushes with nothing pending (no round, no cost) *)
  mutable elision_rounds_elided : int;
      (** shootdown rounds replaced by a generation bump
          (docs/ELISION.md) *)
  mutable elision_gen_bumps : int;  (** generation bumps published *)
  mutable elision_wrap_flushes : int;
      (** generation wraparounds repaired by a real space flush *)
}

val ncpus : ctx -> int

val create_ctx :
  eng:Sim.Engine.t ->
  bus:Sim.Bus.t ->
  cpus:Sim.Cpu.t array ->
  mmus:Hw.Mmu.t array ->
  mem:Hw.Phys_mem.t ->
  params:Sim.Params.t ->
  xpr:Instrument.Xpr.t ->
  ctx
(** Build the shared context and kernel pmap; wires the kernel space into
    every MMU. *)

val create_pmap : ctx -> name:string -> t
(** A fresh user pmap with a unique space id. *)

val activate : ctx -> t -> Sim.Cpu.t -> unit
(** Bookkeeping call: [pmap] is now in use on [cpu].  Flushes user TLB
    entries (unless ASID-tagged) and waits out any in-progress update of
    the relevant pmaps, taking interrupts while it waits. *)

val deactivate : ctx -> t -> Sim.Cpu.t -> unit
(** [pmap] is no longer in use on [cpu] (ignored for ASID-tagged TLBs,
    where entries outlive the context switch — paper section 10). *)

val other_users : ctx -> t -> me:int -> bool
(** Is any processor other than [me] using this pmap? *)

val pmap_of_space : ctx -> space:int -> on:int -> t option

val batch_covers : ctx -> space:int -> vpn:Hw.Addr.vpn -> bool
(** Is [vpn] of [space] covered by an open gather batch?  Such a page may
    legally linger in a TLB until the batch flushes. *)

val vpn_bounds : t -> int * int

(** {1 Diagnostic labels} *)

val add_phase_label : Buffer.t -> ctx -> int -> unit
(** [add_phase_label b ctx cpu] appends CPU [cpu]'s phase label to [b],
    e.g. ["shooting:user3"], without allocating. *)

val await_ack_note : string
(** The [Sim.Cpu.note] of an initiator waiting at its ack barrier for
    responder [awaiting]: a shared constant, so setting it allocates
    nothing. *)

val note_label : ctx -> Sim.Cpu.t -> string
(** The CPU's note as text: ["await-ack:<cpu>"] for {!await_ack_note},
    the note itself otherwise. *)
