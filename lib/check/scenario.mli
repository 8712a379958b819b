(** The model checker's scenario matrix: small closed configurations of
    the shootdown protocol, each runnable as one deterministic schedule
    under a [Sim.Explore] choice prefix.

    A scenario boots a fresh quiet machine (no cost jitter, no background
    bus traffic, no random spin misses — every run is a pure function of
    the choice prefix), attaches the consistency oracle, runs a short
    protocol exercise, and checks its safety properties:

    - the oracle's invariants at every shootdown-completion, batch-flush
      and quiescent point;
    - no CPU writes through a stale mapping after the initiator's
      protection update has completed (the paper section 5.1 property);
    - the run terminates (a wedged machine or an exhausted event budget
      is reported as a deadlock/livelock verdict);
    - scenario-specific liveness facts (lazy shootdowns really skipped,
      watchdog escalation really converging, batched deallocations really
      retired).

    The exhaustive driver lives in {!Explorer}; this module only knows
    how to run {e one} schedule. *)

type verdict =
  | Pass
  | Violation of { kind : string; detail : string }
      (** [kind] is one of ["oracle"], ["stale-write"], ["deadlock"],
          ["property"] or ["crash"]. *)

type outcome = {
  verdict : verdict;
  decisions : Sim.Explore.decision list;  (** the schedule actually run *)
  consulted : int;  (** choice sites consulted, incl. forced ones *)
  elided : int;  (** inert same-instant events excluded from ties *)
  truncated : bool;  (** the decision log overflowed [max_decisions] *)
}

type spec
(** A scenario: key, label, machine shape and protocol exercise. *)

val key : spec -> string
(** Stable [a-z0-9-] identifier used in JSON and on the command line. *)

val label : spec -> string

val cpus : spec -> requested:int -> int
(** Actual processor count used when the caller asks for [requested]
    (the clustered scenario needs at least two clusters of two). *)

val pages : spec -> int

val all : spec list
(** The full matrix: [plain], [pair] (two concurrent initiators on
    overlapping pages), [lazy] (lazy-evaluation skip then reuse),
    [batch] (gather-batched deallocation), [escalate] (IPI blackout
    driving the watchdog to escalation) and [cluster] (two-cluster
    hierarchical topology, multicast IPIs). *)

val find : string -> spec option
(** Look a scenario up by {!key}. *)

val run :
  ?mutant:Core.Pmap.mutant ->
  ?max_decisions:int ->
  ?observe:(Vm.Machine.t -> int -> unit) ->
  ?trace:Instrument.Trace.t ->
  cpus:int ->
  spec ->
  prefix:int array ->
  unit ->
  outcome
(** Run one schedule of [spec] on a fresh machine: replay [prefix] at
    the choice points, default to the baseline alternative beyond it.
    [cpus] is the {e requested} processor count (see {!cpus}); [mutant]
    (default [Core.Pmap.No_mutant]) seeds a protocol bug; [observe],
    if given, is installed as the explorer's choice observer with the
    machine in hand — the DFS driver fingerprints states through it;
    [trace] attaches the span tracer for counterexample rendering.
    Never raises: every failure mode is folded into the verdict. *)

val fingerprint : Vm.Machine.t -> string
(** Digest of the model-relevant machine state: pending events (as
    time-to-fire/label pairs), the protocol's per-CPU flags and phases,
    action-queue emptiness, pmap lock holders, every TLB's contents and
    the property-gating counters.  Thread-private progress (loop
    counters, memory word values) is deliberately abstracted away, which
    is what makes fingerprint pruning a heuristic state reduction — the
    explorer's [--no-prune] mode cross-checks it. *)

val mutant_name : Core.Pmap.mutant -> string
(** ["none"], ["skip-barrier"], ["skip-responder-invalidate"] or
    ["skip-generation-bump"]. *)

val mutants : Core.Pmap.mutant list
(** Every mutant, [No_mutant] first: the values of [tlbshoot check
    --mutant], by {!mutant_name}. *)

val mutant_of_string : string -> (Core.Pmap.mutant, string) result
