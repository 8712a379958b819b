(** A simulated processor.

    The coroutine currently executing on a CPU advances simulated time with
    {!step}/{!spin_poll}/{!raw_delay}; pending interrupts are taken inline
    at those points, like a real interrupt service routine borrowing the
    interrupted context.

    The record is exposed because the layers above wire themselves into it:
    the scheduler maintains [idle], the shootdown module installs
    [shootdown_handler], and the experiment harness reads the accounting
    fields. *)

type acct = {
  mutable busy_time : float;
  mutable spin_time : float;
  mutable store_backlog : float;
      (** fractional accumulator for background store traffic *)
  mutable sleep_dt : float;  (** argument slot of the interruptible sleep *)
}
(** A CPU's float state, in a float-only record so that its fields are
    stored unboxed. *)

type t = {
  id : int;
  eng : Engine.t;
  bus : Bus.t;
  params : Params.t;
  prng : Prng.t;
  ctl : Interrupt.controller;
  mutable ipl : Interrupt.level;
  mutable sleeper : Engine.wakener;
      (** current interruptible sleep; [Engine.no_wakener] when awake *)
  mutable sleep : Engine.suspension;
      (** the interruptible sleep's suspend request, built once *)
  mutable idle : bool; (** maintained by the scheduler's idle loop *)
  mutable in_interrupt : bool;
  mutable shootdown_handler : t -> unit;
  mutable device_handler : t -> unit;
  fault : Fault.t option;
      (** per-CPU fault injector ([None] when [Params.faults] is zero) *)
  acct : acct;  (** busy, spin and sleep times *)
  mutable interrupts_taken : int;
  mutable note : string;  (** diagnostic: current activity label *)
  mutable profile : Instrument.Profile.t option;
      (** contention profiler; [None] (and cost-free) unless attached *)
  mutable last_shoot_posted_at : float;
      (** raise time of the shootdown IPI currently being dispatched
          (earliest post when coalesced); [nan] outside a dispatch — the
          flight recorder reads it to split IPI delivery latency from
          handler time (docs/TAIL.md) *)
}

val create : Engine.t -> Bus.t -> Params.t -> id:int -> t

val id : t -> int
val now : t -> float
val params : t -> Params.t

val step : t -> float -> unit
(** Advance [cost] us of user-mode computation, taking deliverable
    interrupts at slice boundaries. *)

val kernel_step : t -> float -> unit
(** Like {!step}, but interleaved with short interrupt-disabled sections
    (Params.spl_section_rate), modelling kernel interrupt masking. *)

val raw_delay : t -> float -> unit
(** Advance time without checking interrupts (handler / masked context). *)

val masked_service : t -> float -> unit
(** Advance time at the current (raised) IPL, admitting strictly
    higher-priority interrupts at short intervals. *)

val arm_poll : t -> Engine.wakener -> unit
(** The idle loop's interruptible sleep registration: make the wakener
    the CPU's [sleeper] (so a posted interrupt cuts the sleep short) and
    arm its wake after [acct.sleep_dt] with [Engine.poll_after]. *)

val has_deliverable : t -> bool
(** An interrupt is pending above the CPU's current IPL. *)

val spin_poll : t -> unit
(** One busy-wait iteration; takes interrupts if unmasked. *)

val spin_poll_masked : t -> unit
(** One busy-wait iteration with interrupts implicitly masked. *)

val post : t -> Interrupt.kind -> unit
(** Post an interrupt to this CPU from any coroutine. *)

val pending_interrupt : t -> Interrupt.kind -> bool

val check_interrupts : t -> unit
(** Deliver any pending, unmasked interrupts now. *)

val ipl : t -> Interrupt.level

val set_ipl : t -> Interrupt.level -> Interrupt.level
(** Set the interrupt priority level; returns the previous level.
    Lowering the level delivers anything it unmasks. *)

val restore_ipl : t -> Interrupt.level -> unit

val with_disabled : t -> (unit -> unit) -> unit
(** Run with all interrupts masked. *)

val jittered : t -> float -> float
(** Apply this CPU's multiplicative cost noise to a constant. *)

val default_device_handler : t -> unit

val interruptible_sleep : t -> float -> unit
(** Sleep up to [dt], returning early if an interrupt is posted. *)

(** {1 Contention-profiler hooks}

    Each is one branch of cost while no profiler is attached (the same
    contract as tracing); the layers above use them to bracket lock
    spins, barrier waits and queue drains — see docs/PROFILING.md. *)

val prof_enter : t -> Instrument.Profile.category -> unit
(** Push an attribution region on this CPU's profiler stack. *)

val prof_leave : t -> unit
(** Pop the innermost region (emitting a timeline slice when the
    profiler carries a tracer). *)

val prof_observe : t -> name:string -> float -> unit
(** Record a sample into the profiler's named histogram. *)
