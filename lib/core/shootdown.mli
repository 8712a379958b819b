(** The Mach TLB shootdown algorithm (paper section 4, Figure 1), plus the
    alternative consistency policies used as baselines.

    The protocol, in four phases:
    + the {e initiator} queues consistency actions for every processor
      using the pmap and interrupts the non-idle ones;
    + the {e responders} acknowledge by leaving the active set and spin
      while any relevant pmap is locked;
    + the initiator, once every interrupted processor has acknowledged or
      stopped using the pmap, performs the page-table update;
    + on unlock, the responders drain their action queues (invalidating
      TLB entries or flushing) and rejoin the active set. *)

val with_update :
  ?elide_reuse:bool ->
  Pmap.ctx ->
  Sim.Cpu.t ->
  Pmap.t ->
  lo:Hw.Addr.vpn ->
  hi:Hw.Addr.vpn ->
  may_be_inconsistent:(unit -> bool) ->
  update:(unit -> unit) ->
  unit
(** Wrap a pmap modification of pages [lo, hi) in the consistency protocol
    selected by [Params.consistency].  [may_be_inconsistent] is evaluated
    under the pmap lock and embodies the lazy-evaluation check; [update]
    performs the page-table change (phase 3).

    [elide_reuse] (default false) marks call sites whose update only
    removes mappings: with [Params.elide_reuse_flushes] on, a user-pmap
    round with remote users is then elided by bumping the space's TLB
    generation instead — stale entries die on the tag check at their next
    lookup (docs/ELISION.md). *)

val with_update_ranges :
  ?elide_reuse:bool ->
  ?origin:Instrument.Flight.kind ->
  Pmap.ctx ->
  Sim.Cpu.t ->
  Pmap.t ->
  ranges:(Hw.Addr.vpn * Hw.Addr.vpn) list ->
  may_be_inconsistent:(unit -> bool) ->
  update:(unit -> unit) ->
  unit
(** General form of {!with_update} used by [Gather.flush]: retire a list
    of disjoint [lo, hi) ranges in a single protocol round, queueing one
    range action per coalesced range.  The flush-threshold decision is
    made on the total page count, and a large batch naturally overflows
    the fixed-size action queues into the responders' flush-everything
    path.  A singleton list is exactly {!with_update}.

    [origin] (default [Instrument.Flight.Round]) tags the round's flight
    record when a recorder is attached — [Gather.flush] passes
    [Gather_flush]; an elided round is retagged [Elided] regardless
    (docs/TAIL.md). *)

val gen_limit : int
(** Generation-counter wrap budget: at this value the elision path runs a
    real space flush on every TLB and restarts the counter from 1. *)

val responder : Pmap.ctx -> Sim.Cpu.t -> unit
(** The shootdown interrupt service routine (phases 2 and 4).  Installed
    by {!install}; exposed for tests. *)

val idle_check : Pmap.ctx -> Sim.Cpu.t -> unit
(** Idle processors are never interrupted but must drain queued actions
    before becoming active; the scheduler's idle loop calls this. *)

val idle_pending : Pmap.ctx -> Sim.Cpu.t -> bool
(** {!idle_check} has queued actions to execute on this CPU.  While it
    has none, {!idle_check} does nothing: the scheduler's idle re-park
    relies on it ([Sim.Sched.actions_queued]). *)

val need_action : Pmap.ctx -> int -> unit
(** [need_action ctx oid] flags CPU [oid]'s queued actions, for
    {!idle_pending} and the responder, and disturbs the engine
    ([Sim.Engine.disturb]): an idle CPU's loop polls them at its next
    poll.  The one write that sets the flag. *)

val install : Pmap.ctx -> unit
(** Wire {!responder} into every CPU's shootdown-interrupt dispatch. *)

val responder_must_stall : Sim.Params.t -> bool
(** Whether responders must spin until the pmap update completes: false
    only for software-reloaded TLBs with safe ref/mod handling
    (section 9). *)

val invalidate_local :
  Pmap.ctx -> Sim.Cpu.t -> space:int -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> unit
(** Invalidate translations in the calling CPU's own TLB, choosing between
    per-entry invalidates and a full flush by [Params.tlb_flush_threshold]. *)

val process_queued_actions : Pmap.ctx -> Sim.Cpu.t -> bool
(** Drain this CPU's consistency-action queue; [true] if any drained
    action targeted the kernel pmap. *)
