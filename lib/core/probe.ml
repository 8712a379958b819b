(* The shootdown protocol's instrumentation points as one typed stream.

   Shootdown emits each point of Figure 1 once, guarded by [attached], and
   [emit] fans it out to the Trace span stream and the Flight recorder.
   A point value is built only behind the guard, so a run with no sink
   pays one test per point and allocates nothing.  Some points have one
   subscriber: Flight's [Shoot] comes before the local invalidate, for
   instance, and Trace's [Start] after it. *)

module Trace = Instrument.Trace
module Flight = Instrument.Flight

type point =
  | Round_start of { kind : Flight.kind; pmap : Pmap.t; pages : int }
  | Lock
  | Shoot
  | Start
  | Queue of int
  | Ipi of int
  | Barrier
  | Retry of int
  | Escalate of { target : Sim.Cpu.t; pmap : Pmap.t; retries : int }
  | Barrier_done
  | Shoot_done
  | Lazy_skip
  | Elided
  | Updated
  | Unlocked
  | Round_end
  | Enter
  | Ack
  | Drain
  | Done
  | Idle_drain
  | Tlb of { space : int; pages : int; flush : bool }

let[@inline] attached ctx = ctx.Pmap.trace != None || ctx.Pmap.flight != None

let to_flight ctx f ~cpu ~at = function
  | Round_start { kind; pmap; pages } ->
      Flight.round_start f ~cpu ~at ~kind ~pmap:pmap.Pmap.pname ~pages
  | Lock -> Flight.round_lock f ~cpu ~at
  | Shoot -> Flight.round_shoot f ~cpu ~at
  | Ipi target -> Flight.ipi_posted f ~cpu ~target ~at
  | Barrier -> Flight.barrier_start f ~cpu ~at
  | Retry target ->
      Flight.retry f ~cpu ~at;
      (* a real IPI on the wire; r_posted keeps the original raise for
         delivery attribution *)
      Flight.ipi_posted f ~cpu ~target ~at
  | Barrier_done -> Flight.barrier_done f ~cpu ~at
  | Shoot_done ->
      (* first write wins: a barrier that ran keeps its real boundaries *)
      Flight.barrier_start f ~cpu ~at;
      Flight.barrier_done f ~cpu ~at
  | Lazy_skip -> Flight.round_abort f ~cpu
  | Elided -> Flight.round_no_shoot f ~cpu ~at ~kind:Flight.Elided
  | Updated -> Flight.update_done f ~cpu ~at
  | Round_end -> Flight.round_end f ~cpu ~at
  | Enter ->
      Flight.responder_enter f ~cpu ~at
        ~posted:ctx.Pmap.cpus.(cpu).Sim.Cpu.last_shoot_posted_at
  | Ack -> Flight.responder_ack f ~cpu ~at
  | Drain -> Flight.responder_drain f ~cpu ~at
  | Done -> Flight.responder_done f ~cpu ~at
  | Start | Queue _ | Escalate _ | Unlocked | Idle_drain | Tlb _ -> ()

(* Trace pairs a phase's closing span with its opening one through marks:
   responder.enter -> responder.ack and initiator.start ->
   initiator.update-done carry the elapsed time as [dur]. *)
let enter_slot cpu = 2 * cpu
let start_slot cpu = (2 * cpu) + 1

let phase_label ctx cpu =
  let b = Buffer.create 32 in
  Pmap.add_phase_label b ctx cpu;
  Buffer.contents b

let to_trace ctx tr ~cpu ~at point =
  let span ?(attrs = []) name = Trace.emit tr ~name ~cpu ~at ~attrs () in
  let closing name ~slot =
    let since = Trace.since tr ~slot in
    if Float.is_nan since then span name
    else Trace.emit tr ~name ~cpu ~at:since ~dur:(at -. since) ~attrs:[] ()
  in
  let target name t = span name ~attrs:[ ("target", Trace.Int t) ] in
  match point with
  | Start ->
      Trace.mark tr ~slot:(start_slot cpu) ~at;
      span "initiator.start"
  | Queue t ->
      let q = ctx.Pmap.queues.(t) in
      span "initiator.queue-action"
        ~attrs:
          [
            ("target", Trace.Int t);
            ("queue_depth", Trace.Int q.Action.count);
            ("overflow", Trace.Bool q.Action.overflow);
          ]
  | Ipi t -> target "initiator.ipi" t
  | Retry t -> target "initiator.watchdog-retry" t
  | Escalate { target = missing; pmap; retries } ->
      let oid = Sim.Cpu.id missing in
      target "initiator.watchdog-escalate" oid;
      (* who is missing, what it was last seen doing, which pmap *)
      span "watchdog.escalation"
        ~attrs:
          [
            ("missing", Trace.Int oid);
            ("pmap", Trace.Str pmap.Pmap.pname);
            ("retries", Trace.Int retries);
            ("missing_phase", Trace.Str (phase_label ctx oid));
            ("missing_note", Trace.Str (Pmap.note_label ctx missing));
          ]
  | Barrier_done -> span "initiator.barrier-done"
  | Unlocked -> closing "initiator.update-done" ~slot:(start_slot cpu)
  | Enter ->
      Trace.mark tr ~slot:(enter_slot cpu) ~at;
      span "responder.enter"
  | Ack -> closing "responder.ack" ~slot:(enter_slot cpu)
  | Drain -> span "responder.drain"
  | Done -> span "responder.done"
  | Idle_drain -> span "idle.drain"
  | Tlb { space; pages; flush } ->
      span
        (if flush then "tlb.flush" else "tlb.invalidate")
        ~attrs:[ ("space", Trace.Int space); ("pages", Trace.Int pages) ]
  | Round_start _ | Lock | Shoot | Barrier | Shoot_done | Lazy_skip | Elided
  | Updated | Round_end ->
      ()

let emit ctx ~cpu point =
  let at = Sim.Engine.now ctx.Pmap.eng in
  (match ctx.Pmap.flight with
  | Some f -> to_flight ctx f ~cpu ~at point
  | None -> ());
  match ctx.Pmap.trace with
  | Some tr -> to_trace ctx tr ~cpu ~at point
  | None -> ()
