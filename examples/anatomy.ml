(* Anatomy of one TLB shootdown: run the consistency tester with a span
   tracer attached and print the chronological, per-CPU log of the
   protocol points — Figure 1 of the paper, made visible.

     dune exec examples/anatomy.exe *)

module Trace = Instrument.Trace

(* The log line of a protocol span, [None] for other spans; [target] is
   the CPU named by the span's "target" attribute. *)
let label name ~target =
  let at_target fmt = Some (Printf.sprintf fmt target) in
  match name with
  | "initiator.start" ->
      Some "initiator: enter (lock held, local TLB invalidated)"
  | "initiator.queue-action" ->
      at_target "initiator: queue action for cpu%d, set action-needed"
  | "initiator.ipi" -> at_target "initiator: send IPI to cpu%d"
  | "initiator.barrier-done" ->
      Some "initiator: all acknowledgements in - updating pmap"
  | "initiator.update-done" -> Some "initiator: update done, pmap unlocked"
  | "initiator.watchdog-retry" ->
      at_target "initiator: watchdog timeout - re-interrupting cpu%d"
  | "initiator.watchdog-escalate" ->
      at_target "initiator: retries exhausted - abandoning cpu%d (escalate)"
  | "responder.enter" -> Some "responder: interrupt dispatched"
  | "responder.ack" ->
      Some "responder: acknowledged (left active set), spinning on lock"
  | "responder.drain" -> Some "responder: lock released - draining action queue"
  | "responder.done" -> Some "responder: done, rejoined active set"
  | "idle.drain" ->
      Some "idle processor: drained queued actions before dispatch"
  | _ -> None

let render tr =
  let lines =
    List.filter_map
      (fun (s : Trace.span) ->
        let target =
          match List.assoc_opt "target" s.Trace.attrs with
          | Some (Trace.Int t) -> t
          | _ -> 0
        in
        (* a span with a duration is stamped at its phase's start *)
        Option.map
          (fun l -> (s.Trace.at +. s.Trace.dur, s.Trace.cpu, l))
          (label s.Trace.name ~target))
      (Trace.spans tr)
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Anatomy of a shootdown (relative microseconds, per-CPU)\n\n";
  (match lines with
  | [] -> ()
  | (t0, _, _) :: _ ->
      List.iter
        (fun (at, cpu, l) ->
          Buffer.add_string buf
            (Printf.sprintf "%9.1f  cpu%-2d  %s\n" (at -. t0) cpu l))
        lines);
  Buffer.contents buf

let () =
  let params =
    { Sim.Params.default with ncpus = 6; cost_jitter = 0.0; seed = 11L }
  in
  let machine = Vm.Machine.create ~params () in
  let tr = Trace.create () in
  machine.Vm.Machine.ctx.Core.Pmap.trace <- Some tr;
  let result = Workloads.Tlb_tester.run machine ~children:3 () in
  print_string (render tr);
  Printf.printf
    "\nshootdown involved %d processors; consistency maintained: %b\n"
    result.Workloads.Tlb_tester.processors
    result.Workloads.Tlb_tester.consistent;
  print_string
    "\nRead it against paper Figure 1: phase 1 is the queue/IPI burst, \
     phase 2 the\nacknowledgements and lock spins, phase 3 ends at 'update \
     done', and phase 4\nis each responder draining its queue after the \
     unlock.\n"
