(** Sharded binary min-heap of timestamped events.

    Keys are [(time, seq)] pairs compared lexicographically, giving FIFO
    order among events scheduled for the same simulated instant.  The
    heap is split into independent sub-heaps ("shards") — the engine
    gives each bus cluster its own — and a pop scans the shard roots for
    the global minimum.  Sequence numbers are globally unique, so the
    pop order is identical to a single heap's regardless of how events
    are distributed over shards.  Storage is structure-of-arrays
    (unboxed times, seqs, payloads), so pushing an event allocates
    nothing. *)

type 'a t

val create : ?shards:int -> dummy:'a -> unit -> 'a t
(** [create ~shards ~dummy ()] makes an empty heap of [shards]
    independent sub-heaps (default 1, the historical single heap).
    [dummy] fills unused slots.
    @raise Invalid_argument if [shards < 1]. *)

val shards : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> ?shard:int -> float -> int -> 'a -> unit
(** [push h ~shard time seq v] inserts [v] with key [(time, seq)] into
    the given sub-heap (default shard 0).  [seq] must be unique across
    all shards for the global pop order to be total. *)

val pop : 'a t -> float * int * 'a
(** Remove and return the globally minimum element.
    @raise Invalid_argument if the heap is empty. *)

val min_time : 'a t -> float
(** Timestamp of the next event without removing it.
    @raise Invalid_argument if the heap is empty. *)

val pop_payload : 'a t -> 'a
(** Remove the globally minimum element and return only its payload (the
    non-allocating variant of {!pop}; read {!min_time} first if the
    timestamp is needed).
    @raise Invalid_argument if the heap is empty. *)

val min_shard : 'a t -> int
(** Shard whose root is the global [(time, seq)] minimum, or [-1] if the
    heap is empty.  This is the root scan every pop pays once; with
    {!root_time}, {!root_seq} and {!pop_shard} a caller can read the next
    key and pop it without scanning again. *)

val root_time : 'a t -> int -> float
(** [root_time h k] is the time at the root of shard [k] (as returned by
    {!min_shard}).  Inlined, so the float is not boxed. *)

val root_seq : 'a t -> int -> int
(** Sequence number at the root of shard [k]. *)

val pop_shard : 'a t -> int -> 'a
(** [pop_shard h k] removes the root of shard [k], which must be
    non-empty, and returns its payload.  Popping the shard {!min_shard}
    names pops the global minimum. *)

val iter_payloads : ('a -> unit) -> 'a t -> unit
(** Apply [f] to every pending payload across {e all} shards, in
    per-shard heap (not time) order.  For diagnostics — e.g. summarising
    what was still scheduled when a run blew its event budget. *)

val iter_entries : (float -> int -> 'a -> unit) -> 'a t -> unit
(** Like {!iter_payloads} but passing each entry's [(time, seq)] key as
    well — the model checker folds pending events into its state
    fingerprints with this. *)
