(** Binary min-heap of timestamped events.

    Keys are [(time, seq)] pairs compared lexicographically, giving FIFO
    order among events scheduled for the same simulated instant.  Storage
    is structure-of-arrays, so pushing an event allocates nothing.  It is
    an index heap: the keys and a slab index per entry move with the
    sifts, by heap position, while each payload stays where its push
    wrote it, in a slab.  The slab indices form a permutation of the
    capacity whose positions past {!length} hold the free ones.  So a
    push and a pop each store one pointer, and the sifts store none. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty heap.  [dummy] fills unused
    slots. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> int -> 'a -> unit
(** [push h time seq v] inserts [v] with key [(time, seq)].  [seq] must
    be unique for the pop order to be total. *)

val pop : 'a t -> float * int * 'a
(** Remove and return the minimum element.
    @raise Invalid_argument if the heap is empty. *)

val min_time : 'a t -> float
(** Timestamp of the next event without removing it.
    @raise Invalid_argument if the heap is empty. *)

val pop_payload : 'a t -> 'a
(** Remove the minimum element and return only its payload (the
    non-allocating variant of {!pop}; read {!min_time} or {!root_time}
    first if the timestamp is needed).
    @raise Invalid_argument if the heap is empty. *)

val root_time : 'a t -> float
(** Time at the root, unchecked: the heap must be non-empty.  Inlined, so
    the float is not boxed. *)

val root_seq : 'a t -> int
(** Sequence number at the root, unchecked like {!root_time}. *)

val iter_payloads : ('a -> unit) -> 'a t -> unit
(** Apply [f] to every pending payload, in heap (not time) order.  For
    diagnostics — e.g. summarising what was still scheduled when a run
    blew its event budget. *)

val iter_entries : (float -> int -> 'a -> unit) -> 'a t -> unit
(** Like {!iter_payloads} but passing each entry's [(time, seq)] key as
    well — the model checker folds pending events into its state
    fingerprints with this. *)
