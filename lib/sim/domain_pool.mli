(** Trial pool over OCaml 5 [Domain]s for independent trial sweeps.
    Scheduling is one shared atomic cursor: each worker, the calling
    domain included, claims the next unclaimed trial index and runs that
    trial into its own result slot, until the indices run out.

    The determinism contract (see docs/PARALLELISM.md): a trial function
    given to {!map_trials} must depend only on its input — in practice,
    boot a fresh machine from a per-trial seed — and must not touch state
    shared with other trials.  Under that contract the result is
    bit-for-bit identical for every [jobs] value; which worker runs a
    given trial is the only thing scheduling may change. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default of the
    bench and CLI drivers. *)

val map_trials : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_trials ~jobs f xs] maps [f] over [xs] on up to [jobs] domains
    (never more than [List.length xs], and fewer if the runtime refuses
    to start a domain) and returns the results in input order.  [jobs = 1] is a guaranteed-sequential fast path equal to
    [List.map f xs].

    If a trial raises, the workers stop claiming trials, and once all
    have stopped the exception of the first failing trial in input order
    is re-raised in the caller with its backtrace — the error
    [List.map f xs] raises, at every [jobs].  A claimed trial always
    runs and indices are claimed in increasing order, so every trial
    before a claimed one has run; unclaimed trials are abandoned.

    At most one parallel pool may be active per process: calling
    [map_trials ~jobs:(>1)] from inside a trial raises
    [Invalid_argument] (nested [jobs:1] sweeps are allowed).
    @raise Invalid_argument if [jobs < 1] or on nested parallel use. *)
