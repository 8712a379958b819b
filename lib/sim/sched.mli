(** Cooperative thread scheduler over simulated CPUs.

    Each thread is its own coroutine; each CPU runs an idle-loop
    coroutine.  A CPU is a baton: the idle loop hands it to a ready
    thread and gets it back when the thread blocks, yields or exits.
    Interrupts are taken by whichever coroutine currently holds the CPU.

    The record types are exposed so upper layers can wire themselves in:
    the machine layer installs the [pre_dispatch]/[activate]/[deactivate]
    hooks, and attaches its task data to threads via the extensible
    [user_data]. *)

type user_data = ..
type user_data += No_data

type state = Created | Ready | Running | Blocked | Finished

exception
  Broken_invariant of { what : string; cpu : int; tid : int; now : float }
(** A scheduler invariant does not hold (e.g. an operation on a thread
    that holds no CPU).  [cpu] is [-1] and [now] is [nan] where that
    context does not exist at the raise site.  Registered with
    [Printexc], so fault-run backtraces print the full context. *)

type thread = {
  tid : int;
  tname : string;
  mutable state : state;
  mutable cpu : Cpu.t option;
  mutable parked : Engine.wakener option;
  bound : int option;  (** pin to a CPU id *)
  mutable home : int;
      (** cluster affinity: where the thread queues when ready; updated
          when a steal migrates it (always [0] on a flat machine) *)
  mutable data : user_data;
  mutable joiners : thread list;
  mutable wakeup_pending : bool;
  mutable run_time : float;
}

type t = {
  eng : Engine.t;
  cpus : Cpu.t array;
  params : Params.t;
  cluster_ready : thread Queue.t array;
      (** unbound ready threads, one queue per cluster (length 1 on a
          flat machine — the historical global queue); idle CPUs prefer
          their own cluster's queue and steal from the others *)
  cluster_of_cpu : int array;  (** CPU id -> cluster *)
  bound_ready : thread Queue.t array;
  return_wakeners : Engine.wakener option array;
  mutable tid_counter : int;
  mutable live_threads : int;
  mutable started_threads : int;
  mutable pre_dispatch : Cpu.t -> unit;
      (** run by idle loops before dispatching (consistency-action check) *)
  mutable actions_queued : Cpu.t -> bool;
      (** [pre_dispatch] has queued work for this CPU.  While it has none,
          [pre_dispatch] must perform no effect and be idempotent: the
          engine may run it to re-park a quiet idle loop, or skip it
          (Engine.idle_suspension).  Whatever queues work for an idle CPU
          must call [Engine.disturb].  A machine takes both from one
          module ([Shootdown.idle_pending] and [Shootdown.idle_check]). *)
  mutable activate : thread -> Cpu.t -> unit;
  mutable deactivate : thread -> Cpu.t -> unit;
  mutable shutdown : bool;
}

val create : Engine.t -> Cpu.t array -> Params.t -> t

val start : t -> unit
(** Spawn the per-CPU idle loops. *)

val stop : t -> unit
(** Ask idle loops and daemons to exit at their next check; disturbs the
    engine, so no parked idle loop stays quiet. *)

val stopped : t -> bool
val live_threads : t -> int
val cpus : t -> Cpu.t array
val engine : t -> Engine.t

val create_thread :
  t -> ?bound:int -> ?name:string -> (thread -> unit) -> thread
(** Create a thread; it enters the ready queue and runs when an idle CPU
    dispatches it. *)

val current_cpu : thread -> Cpu.t
(** The CPU the thread is running on.
    @raise Broken_invariant if the thread is not running.  Do not cache
    the result across a blocking call — the thread may migrate. *)

val block : t -> thread -> unit
(** Park the calling thread until {!wakeup}; the CPU goes back to its
    idle loop.  Callers re-check their condition in a loop (wakeups can
    race; a latch keeps them from being lost). *)

val wakeup : t -> thread -> unit
(** Make a blocked thread runnable (pure; safe from timers/registrations). *)

val yield : t -> thread -> unit
(** Give the CPU up if another thread could use it. *)

val sleep : t -> thread -> float -> unit
(** Block for a simulated duration (I/O waits). *)

val join : t -> thread -> thread -> unit
(** [join t self target] blocks [self] until [target] finishes. *)

val make_ready : t -> thread -> unit
(** Internal/advanced: enqueue a Created/Blocked thread directly.  Disturbs
    the engine ([Engine.disturb]): the push may end any idle loop's
    quiet. *)

val has_ready : t -> Cpu.t -> bool

val quiet : t -> Cpu.t -> bool
(** The CPU's idle loop would find nothing to do on its next iteration:
    no shutdown, no deliverable interrupt, no ready thread, no queued
    action.  Every idle poll asks, so it allocates nothing. *)
