(** Structured span-event tracing for the shootdown hot path.

    Named events with typed attributes, emitted by [Sim.Engine] and by
    [Core.Probe] at the shootdown protocol points when a tracer is
    attached (the zero-tracer cost is one branch).  The span stream is
    what the [tlbshoot trace] subcommand dumps; see docs/OBSERVABILITY.md
    for the schema. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  name : string;
  cpu : int;  (** -1 when not attributable to one CPU *)
  at : float;  (** simulated us *)
  dur : float;  (** 0.0 for instantaneous events *)
  attrs : (string * value) list;
}

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the buffer to a ring of that many spans: once full, each
    new span overwrites the oldest and {!dropped} counts the loss.
    Unbounded by default.
    @raise Invalid_argument when [cap < 1]. *)

val enable : t -> unit
val disable : t -> unit
val is_enabled : t -> bool

val set_sink : t -> (span -> unit) option -> unit
(** Streaming consumer called on every emitted span (spans are still
    buffered for {!spans}). *)

val emit :
  t ->
  name:string ->
  cpu:int ->
  at:float ->
  ?dur:float ->
  ?attrs:(string * value) list ->
  unit ->
  unit

val mark : t -> slot:int -> at:float -> unit
(** Remember [at] as the start of a phase under the producer's [slot], so
    the span closing it can carry its duration; works while disabled. *)

val since : t -> slot:int -> float
(** The time last {!mark}ed under [slot]; [nan] if none. *)

val length : t -> int
(** Spans currently retained. *)

val emitted : t -> int
(** Total spans emitted, including any since dropped by the ring. *)

val dropped : t -> int
(** Spans overwritten by a capped buffer ([0] when unbounded). *)

val dropped_warning : t -> string option
(** A human-readable warning when {!dropped} is nonzero — report
    consumers print it on stderr so a truncated trace is never mistaken
    for a complete one; [None] when nothing was lost. *)

val spans : t -> span list
(** Retained spans in emission order (the oldest retained first). *)

val reset : t -> unit

val pp_span : ?t0:float -> span -> string
(** One-line rendering, timestamp relative to [t0]. *)

val render : t -> string
(** Chronological listing relative to the first span. *)

val value_to_json : value -> Json.t
val span_to_json : span -> Json.t

val to_json : t -> Json.t
(** The retained spans as a JSON array. *)

val report_json : t -> Json.t
(** Schema ["tlbshoot-spans-v1"]: the {!to_json} array wrapped with the
    [emitted]/[dropped] counters (see docs/OBSERVABILITY.md). *)
