(** Discrete-event simulation engine.

    Coroutines (OCaml effects) model CPUs, threads and daemons.  Time is a
    [float] number of simulated microseconds — the unit used throughout the
    paper's evaluation. *)

type runaway = {
  runaway_at : float;  (** sim time when the budget tripped *)
  runaway_events : int;  (** events executed so far *)
  runaway_pending : (string * int) list;
      (** pending events by schedule label, most frequent first — the
          stuck site usually dominates this histogram *)
}

exception Runaway of runaway
(** Raised when a run exceeds its event budget (a stuck-spin backstop).
    Registered with [Printexc], so uncaught instances print the full
    diagnostic. *)

type t

type wakener
(** One-shot handle to a parked coroutine.  Waking twice is a no-op. *)

val create : ?seed:int64 -> ?max_events:int -> unit -> t

val now : t -> float
(** Current simulated time in microseconds. *)

val prng : t -> Prng.t
(** The engine's deterministic random stream. *)

val live : t -> int
(** Number of spawned coroutines that have not yet returned. *)

val events_processed : t -> int

val pending : t -> int
(** Events scheduled and not yet processed. *)

val at : ?label:string -> t -> float -> (unit -> unit) -> unit
(** [at t time thunk] schedules [thunk] (clamped to no earlier than now).
    [label] is a diagnostic tag counted per processed event. *)

val after : ?label:string -> t -> float -> (unit -> unit) -> unit

val label_counts : t -> (string * int) list
(** Processed-event counts by label (diagnostics), read from {!metrics}. *)

val metrics : t -> Instrument.Metrics.t
(** The engine's metric registry; processed events are counted per label
    (superseding the old ad-hoc hashtable). *)

val set_tracer : t -> Instrument.Trace.t option -> unit
(** Attach (or detach) a structured span tracer.  With a tracer attached
    the engine emits an ["engine.coroutine"] span for every finished
    coroutine, carrying its name and lifetime. *)

val tracer : t -> Instrument.Trace.t option

val set_explore : t -> Explore.t option -> unit
(** Attach (or detach) a model-checking explorer.  With one attached,
    {!step} collects all events tied at the next instant and lets the
    explorer order the live ones ({!Explore.kind} [Tie]); the interrupt
    and spinlock layers likewise consult it at their choice points.
    Detached (the default) the engine takes a single [None] branch per
    event and behaves exactly as before. *)

val explore : t -> Explore.t option
(** The attached explorer, if any — the hook the interrupt-delivery and
    lock-acquisition choice points read. *)

val set_max_events : t -> int -> unit
(** Override the {!Runaway} event budget.  Model-checking runs shrink it
    so a deadlocking schedule is detected in milliseconds instead of
    after the default 2×10{^8} events. *)

val pending_summary : t -> (float * string) list
(** Pending events as sorted [(delay from now, schedule label)] pairs —
    folded into the model checker's state fingerprints. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a coroutine at the current instant.  The body may perform
    {!delay} and {!suspend}. *)

val delay : float -> unit
(** Let [dt] microseconds of simulated time pass for the calling coroutine.
    Must be called from inside a coroutine. *)

val suspend : (wakener -> unit) -> unit
(** Park the calling coroutine.  [register] receives the wakener and must
    arrange for {!wake} to be called eventually. *)

type suspension
(** A pre-built {!suspend} request, for a site that always parks with the
    same registration function. *)

val suspension : (wakener -> unit) -> suspension
(** [suspension register] builds the request once. *)

val suspend_with : suspension -> unit
(** [suspend_with (suspension register)] is [suspend register], without
    allocating the request on every call — the interruptible-sleep hot
    path parks this way. *)

type idle = {
  quiet : unit -> bool;
      (** the parked loop's next iteration would find nothing to do; may
          read only state whose writers call {!disturb} *)
  settle : unit -> unit;
      (** make that iteration's writes, up to where it parks again; must
          perform no effect, and be idempotent, while [quiet] holds *)
  park : wakener -> unit;
      (** the park's registration: record the wakener, arm its wake *)
}
(** An idle loop's park, for {!idle_suspension}. *)

val idle_suspension : idle -> suspension
(** A suspend request whose registration is [idle.park].  When the wake
    of a loop parked this way is dispatched and [idle.quiet ()] holds,
    the engine runs [idle.settle] and [idle.park] on a fresh wakener
    instead of resuming the loop: the iteration it skips would have made
    the same writes and parked again.  The wake event is counted either
    way, also when it runs in its timer's dispatch (see {!step}).  A loop
    that parks this way must therefore run [settle] and park again
    whenever it resumes with [quiet] true.

    [park] must arm exactly one timer, [poll_after t period w] with the
    same [period] on every call, and write the same values on every call
    for one loop: the engine may re-arm that timer [period] later in
    place, keeping the loop parked on [w], instead of calling [park]
    again (see {!step}).

    The engine may also skip [quiet] and [settle] for such a re-arm.  It
    does so while nothing has called {!disturb} since the loop was last
    found quiet, so the loop must keep this contract:
    - [quiet] reads only state whose every write that may turn it false
      is followed by a {!disturb} before the next event;
    - [settle] is idempotent while [quiet] holds: running it again, with
      nothing disturbed in between, writes nothing new.
    The engine disturbs by itself whenever {!wake} takes the wakener of
    a loop parked this way. *)

val disturb : t -> unit
(** Make every saved [quiet] verdict stale ({!idle_suspension}): the next
    poll of each parked idle loop asks its [quiet] again.  Called by
    every write that may turn a parked idle loop's [quiet] false — a
    ready-queue push, a shutdown, an action queued for an idle CPU.
    Costs one integer increment. *)

val wake : t -> wakener -> unit
(** Resume a parked coroutine at the current instant (idempotent). *)

val wake_after : t -> float -> wakener -> unit
(** [wake_after t dt w] arranges for [wake t w] after [dt] microseconds —
    the allocation-free equivalent of
    [after t dt (fun () -> wake t w)] (same ["after"] event label, same
    event/sequence structure), used by the timer-sleep hot path. *)

val poll_after : t -> float -> wakener -> unit
(** {!wake_after} for an idle loop's poll timer: the same event at the
    same seq, queued in the poll lane, a FIFO ring, instead of the event
    heap when it is due no earlier than the ring's last entry (otherwise
    in the heap).  Those are the engine's two queues, and a pop takes the
    lesser of their heads, so the pop order is the same either way; a
    caller whose timers are due in non-decreasing order, such as loops
    polling at one period, keeps them all out of the heap. *)

val no_wakener : wakener
(** A pre-fired sentinel: {!wake} on it is a no-op.  Lets hot records
    hold a [wakener] field without an [option] box. *)

val total_events : unit -> int
(** Events processed by every engine that completed a {!run} or
    {!run_until}, summed across all domains since program start — the
    denominator for allocation-per-event telemetry. *)

val step : t -> bool
(** Process one event; [false] if none is pending.  Events pop in
    [(time, seq)] order: by time, then in the order they were scheduled.

    A step may process two events: a timer that fires a parked
    coroutine's wakener, and that wake, when the wake would be the next
    event anyway (nothing else is due at the instant).  The wake is then
    run in the timer's dispatch, with the counts and event budget it
    would have had as an event of its own, so the event stream is the
    same.  An attached explorer would have been offered no choice for
    that wake, so it sees the same decisions too.

    With no explorer attached, a step first re-arms the run of quiet idle
    polls at the poll lane's head ({!poll_after}), in place: each poll
    due strictly before every other pending event, whose loop
    ({!idle_suspension}) is still parked on it and [quiet], counts its
    timer and its wake, runs [settle], and is armed again [period]
    later, on the same wakener, with no wake queued.  A poll whose loop
    was found quiet since the last {!disturb} is re-armed without asking
    [quiet] or running [settle] again.
    Such a step processes many events, all of which would have been next
    anyway and none of which resumes a coroutine. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> float -> unit
(** Run every event due at or before the limit, then set the clock to the
    limit if later events remain queued.  The clock never moves back.
    Quiet idle polls are re-armed in place as in {!step}, up to the
    limit.
    @raise Invalid_argument if the limit is before {!now}. *)
