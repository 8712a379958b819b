(** The shootdown protocol's instrumentation points, as one typed stream.

    [Shootdown] emits each point of Figure 1 once, where it happens, and
    {!emit} fans it out to the sinks attached to the context: the
    [Instrument.Trace] span stream ([ctx.trace]) and the
    [Instrument.Flight] recorder ([ctx.flight]).  Each sink takes the
    points it has a use for (named below) and ignores the rest; both read
    the clock and never advance it, so an attached run is byte-identical
    to a bare one.

    Detached cost: call sites read
    [if Probe.attached ctx then Probe.emit ctx ~cpu point], so a run with
    no sink pays one test per point and allocates nothing
    (docs/OBSERVABILITY.md). *)

type point =
  | Round_start of {
      kind : Instrument.Flight.kind;
      pmap : Pmap.t;
      pages : int;
    }
      (** entered the algorithm, before the pmap lock (Flight) *)
  | Lock  (** pmap lock held: the measured invocation starts (Flight) *)
  | Shoot  (** a round will run; before the local invalidate (Flight) *)
  | Start  (** local TLB clean (Trace) *)
  | Queue of int  (** action queued, target queue lock held (Trace) *)
  | Ipi of int  (** IPI posted to the target (both) *)
  | Barrier  (** ack barrier entered (Flight) *)
  | Retry of int  (** watchdog re-interrupts the target (both) *)
  | Escalate of { target : Sim.Cpu.t; pmap : Pmap.t; retries : int }
      (** watchdog abandons the target, with its phase and note (Trace) *)
  | Barrier_done  (** every interrupted responder acked (both) *)
  | Shoot_done  (** phases 1–2 over, barrier or not (Flight) *)
  | Lazy_skip  (** the lazy check proved no round needed (Flight) *)
  | Elided  (** round replaced by a generation bump (Flight) *)
  | Updated  (** page tables changed, lock still held (Flight) *)
  | Unlocked  (** update done and lock released (Trace) *)
  | Round_end  (** before interrupts are re-enabled (Flight) *)
  | Enter  (** responder dispatched (both) *)
  | Ack  (** responder left the active set (both) *)
  | Drain  (** responder draining its action queue (both) *)
  | Done  (** responder rejoined the active set (both) *)
  | Idle_drain  (** idle CPU drained its queue before dispatch (Trace) *)
  | Tlb of { space : int; pages : int; flush : bool }
      (** flush-vs-invalidate decision; [space] = -1 for the whole
          buffer (Trace) *)

val attached : Pmap.ctx -> bool
(** Is any sink attached? *)

val emit : Pmap.ctx -> cpu:int -> point -> unit
(** Deliver [point], observed on [cpu] now, to every attached sink. *)
