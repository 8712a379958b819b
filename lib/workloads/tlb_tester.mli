(** The TLB-consistency tester of paper section 5.1.

    A page (or several) of counters incremented by spinning child threads
    through the simulated MMU; the main thread reprotects the region
    read-only, snapshots the counters, and any counter that advances
    afterwards was written through a stale TLB entry.  On an n-CPU
    machine, k < n children cause exactly one shootdown involving exactly
    k processors — the Figure 2 microbenchmark. *)

type result = {
  consistent : bool;
  processors : int; (** processors involved in the shootdown *)
  initiator_elapsed : float; (** us; [nan] if no shootdown event *)
  increments_total : int;
  violations : int; (** counters that advanced after reprotection *)
}

val run :
  ?pages:int ->
  ?churn_rounds:int ->
  Vm.Machine.t ->
  children:int ->
  unit ->
  result
(** Run the tester on a freshly booted machine (consumes it).  The
    children hammer the page for 3000 us before the reprotect, and stale
    entries get 2000 us to do damage afterwards.

    [churn_rounds] (default 0) adds a churn phase between warmup and
    reprotect: that many main-thread-touched throwaway pages are
    deallocated one at a time, 150 us apart, each unmap a complete
    k-responder shootdown round.  The tail-attribution sweep
    (experiments/tail) uses this to give each trial a real population of
    rounds; with the default 0 the run is event-for-event the historical
    single-round tester.
    @raise Invalid_argument if [children >= ncpus]. *)

val run_fresh :
  ?params:Sim.Params.t ->
  ?pages:int ->
  ?churn_rounds:int ->
  children:int ->
  seed:int64 ->
  unit ->
  result
(** Boot a machine with [seed] and run once. *)
