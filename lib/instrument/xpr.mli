(** Circular event buffer in the style of the Mach [xpr] tracing package
    used for the paper's measurements (section 6). *)

type code = Shoot_initiator | Shoot_responder | Custom of int

val code_to_string : code -> string

type event = {
  code : code;
  cpu : int;
  timestamp : float; (** microseconds *)
  arg1 : int; (** initiator: 1 if kernel pmap *)
  arg2 : int; (** initiator: pages involved *)
  arg3 : int; (** initiator: processors shot at *)
  farg : float; (** elapsed time (us) *)
}

type t

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] events (default 65 536).  Slots are allocated on
    first use: the ring starts at 64 and doubles up to [capacity].
    @raise Invalid_argument if [capacity < 1]. *)

val enable : t -> unit
val disable : t -> unit
val reset : t -> unit
(** Drops every event and shrinks the ring back to its first size. *)

val record :
  t ->
  code:code ->
  cpu:int ->
  timestamp:float ->
  ?arg1:int ->
  ?arg2:int ->
  ?arg3:int ->
  ?farg:float ->
  unit ->
  unit

val recorded : t -> int
(** Total events ever recorded (even those overwritten). *)

val overflowed : t -> bool

val to_list : t -> event list
(** Surviving events, oldest first. *)

val filter : t -> (event -> bool) -> event list
val events_with_code : t -> code -> event list
