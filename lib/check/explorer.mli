(** Exhaustive-interleaving driver: stateless depth-first exploration of
    a {!Scenario}'s schedule space.

    Every schedule is a full deterministic re-run of the scenario under
    a choice prefix (see [Sim.Explore]).  After a passing run, the
    recorded decision log tells the driver where that schedule could
    have gone differently; each untried alternative within the depth
    bound becomes a new prefix on the worklist.  Exploration stops at
    the first violation (returning the complete choice sequence as a
    replayable counterexample), when the worklist drains (the space is
    exhausted to the bound), or at the schedule cap.

    Two reductions keep small configurations tractable: inert
    same-instant events never become tie alternatives (counted as
    {e elided} by the hook sites), and — unless [prune] is disabled — a
    state-fingerprint table clamps branching below any position whose
    pre-choice state was already visited ({!Scenario.fingerprint}
    abstracts thread-private progress, so this second reduction is
    heuristic; [--no-prune] cross-checks it). *)

type stats = {
  mutable schedules : int;  (** complete runs executed *)
  mutable states : int;  (** distinct fingerprints recorded *)
  mutable revisits : int;  (** fingerprint hits (pruning opportunities) *)
  mutable pruned : int;  (** runs whose expansion the table clamped *)
  mutable elided : int;  (** inert tie events excluded, summed over runs *)
  mutable max_depth : int;  (** longest decision log seen *)
  mutable truncated : bool;  (** some run overflowed its decision log *)
  mutable capped : bool;  (** stopped at [max_schedules], not exhaustion *)
}

type result = {
  spec : Scenario.spec;
  mutant : Core.Pmap.mutant;
  cpus : int;  (** actual processor count explored *)
  depth : int;  (** expansion bound used *)
  verdict : Scenario.verdict;  (** first violation found, or [Pass] *)
  witness : int list;
      (** the violating schedule's complete choice sequence; [[]] when
          the verdict is [Pass] *)
  stats : stats;
}

val default_max_schedules : int
(** The schedule cap per scenario when none is given: 5000, enough for
    every default scenario to exhaust at depth 16 on 2 and on 4 CPUs. *)

val explore :
  ?mutant:Core.Pmap.mutant ->
  ?cpus:int ->
  ?depth:int ->
  ?max_schedules:int ->
  ?prune:bool ->
  ?max_decisions:int ->
  Scenario.spec ->
  result
(** DFS over the schedule space of one scenario.  Defaults: no mutant,
    2 requested CPUs, depth 16, {!default_max_schedules}, pruning on. *)

(** {2 Counterexamples} *)

val counterexample_json : result -> Instrument.Json.t
(** Schema [tlbshoot-check-counterexample-v1]: scenario key, mutant,
    processor count, verdict and the choice sequence.  Meaningful only
    for violation results (callers guard). *)

type replay = {
  r_scenario : Scenario.spec;
  r_mutant : Core.Pmap.mutant;
  r_cpus : int;
  r_choices : int list;
}

val parse_counterexample : string -> (replay, string) Stdlib.result
(** Decode a counterexample file produced by {!counterexample_json}. *)

val run_replay : ?trace:Instrument.Trace.t -> replay -> Scenario.outcome
(** Re-run the recorded schedule, optionally with the span tracer
    attached (for [Instrument.Perfetto] rendering). *)
