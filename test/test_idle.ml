(* The idle loop's quiet path.  When an idle CPU's wake finds nothing to
   do, the engine re-parks the loop instead of resuming it
   (Engine.idle_suspension).  These are the edge cases of that shortcut:
   an action queued for an idle CPU, a poke whose thread another CPU
   steals first, and shutdown.  The pinned instants and counts were
   captured with an idle loop that resumed on every poll. *)

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

(* An action queued for an idle CPU is drained by that CPU's idle loop at
   its next poll, not by an interrupt.  Every drain happens at the same
   instant, on the same CPU, as it did when each poll resumed the loop. *)
let test_idle_drain_instants () =
  let m = Vm.Machine.create ~params:quiet () in
  let tr = Instrument.Trace.create () in
  m.Vm.Machine.ctx.Core.Pmap.trace <- Some tr;
  Vm.Machine.run m (fun self ->
      let vms = m.Vm.Machine.vms and kmap = m.Vm.Machine.kernel_map in
      let b = Vm.Kmem.alloc_wired vms self kmap ~pages:2 in
      Sim.Cpu.step (Sim.Sched.current_cpu self) 40.0;
      Vm.Kmem.free vms self kmap ~vpn:b ~pages:2);
  let drains =
    List.filter_map
      (fun (s : Instrument.Trace.span) ->
        if s.name = "idle.drain" then Some (s.cpu, s.at) else None)
      (Instrument.Trace.spans tr)
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "idle drains: cpu, instant"
    [
      (9, 0x1.8e23333333335p+11);
      (14, 0x1.8e46666666668p+11);
      (12, 0x1.8e6999999999bp+11);
      (2, 0x1.8e8cccccccccep+11);
      (13, 0x1.8eb0000000001p+11);
      (5, 0x1.8ed3333333334p+11);
      (7, 0x1.8ef6666666667p+11);
      (3, 0x1.8f1999999999ap+11);
      (8, 0x1.8f3cccccccccdp+11);
      (15, 0x1.8f6p+11);
      (6, 0x1.8f83333333333p+11);
      (11, 0x1.8fa6666666666p+11);
      (0, 0x1.8fc9999999999p+11);
      (10, 0x1.8feccccccccccp+11);
      (4, 0x1.900ffffffffffp+11);
    ]
    drains

(* CPU 0 is poked for a ready thread, but CPU 1, whose own poll fired
   first at the same instant, takes the thread.  CPU 0's wake then finds
   nothing: it re-parks on a fresh timer, and the timer it armed before
   the poke stays a no-op when it fires.

   The timeline (context switches cost 150 us, polls come every 25): CPU 0
   runs A from 0 to 155 and then polls at 180, 205, ..., 980, 1005; CPU 1
   runs B from 25 to 175, where B blocks, and then polls at 200, 225, ...,
   1000.  At 1000 CPU 1's poll pops, then the thunk that wakes B (pushed
   at 980, after that poll was armed), whose poke goes to CPU 0. *)
let test_poke_stolen () =
  let params = { quiet with ncpus = 2 } in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpus = Array.init 2 (fun id -> Sim.Cpu.create eng bus params ~id) in
  let sched = Sim.Sched.create eng cpus params in
  Sim.Sched.start sched;
  ignore
    (Sim.Sched.create_thread sched ~bound:0 ~name:"A" (fun th ->
         Sim.Cpu.step (Sim.Sched.current_cpu th) 5.0));
  let ran_on = ref (-1) in
  let b =
    Sim.Sched.create_thread sched ~name:"B" (fun th ->
        Sim.Sched.block sched th;
        ran_on := Sim.Cpu.id (Sim.Sched.current_cpu th))
  in
  Sim.Engine.at eng 980.0 (fun () ->
      Sim.Engine.at eng 1000.0 (fun () -> Sim.Sched.wakeup sched b));
  let count label = List.assoc label (Sim.Engine.label_counts eng) in
  Sim.Engine.run_until eng 1000.0;
  Alcotest.(check bool) "CPU 0 idle" true cpus.(0).Sim.Cpu.idle;
  Alcotest.(check bool) "CPU 1 switching to B" false cpus.(1).Sim.Cpu.idle;
  Alcotest.(check (list (pair (float 0.0) string)))
    "pending: CPU 0's stale and re-armed polls, CPU 1's switch"
    [ (5.0, "after"); (25.0, "after"); (150.0, "delay") ]
    (Sim.Engine.pending_summary eng);
  let wakes = count "wake" and afters = count "after" in
  Sim.Engine.run_until eng 1005.0;
  Alcotest.(check int) "stale timer fired" (afters + 1) (count "after");
  Alcotest.(check int) "and woke nothing" wakes (count "wake");
  Sim.Sched.stop sched;
  Sim.Engine.run eng;
  Alcotest.(check int) "B ran on the CPU that stole it" 1 !ran_on;
  Alcotest.(check (list (pair string int)))
    "events by label"
    [ ("after", 71); ("at", 2); ("delay", 3); ("spawn", 4); ("wake", 77) ]
    (List.sort compare (Sim.Engine.label_counts eng));
  Alcotest.(check (float 0.0)) "final clock" 1150.0 (Sim.Engine.now eng);
  Alcotest.(check int) "no coroutine left" 0 (Sim.Engine.live eng)

(* A quiet CPU's poll, whose wake runs in the poll timer's dispatch,
   re-parks the loop on a wakener that a poke can still fire: a thread
   made ready between two polls pokes it, and the CPU dispatches the
   thread at the poke, not at its next poll.  The CPU polls at 25, 50,
   ..., and threads are made ready at 1010 and 2013; each starts a
   context switch (150 us) later. *)
let test_poke_between_polls () =
  let params = { quiet with ncpus = 1 } in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpus = [| Sim.Cpu.create eng bus params ~id:0 |] in
  let sched = Sim.Sched.create eng cpus params in
  Sim.Sched.start sched;
  let started = ref [] in
  let ready_at time =
    Sim.Engine.at eng time (fun () ->
        ignore
          (Sim.Sched.create_thread sched (fun _ ->
               started := Sim.Engine.now eng :: !started)))
  in
  ready_at 1010.0;
  ready_at 2013.0;
  Sim.Engine.run_until eng 3000.0;
  Alcotest.(check (list (float 0.0)))
    "threads start one switch after the poke" [ 1160.0; 2163.0 ]
    (List.rev !started);
  Sim.Sched.stop sched;
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "events by label"
    [ ("after", 110); ("at", 2); ("delay", 2); ("spawn", 3); ("wake", 114) ]
    (List.sort compare (Sim.Engine.label_counts eng));
  Alcotest.(check (float 0.0)) "final clock" 3013.0 (Sim.Engine.now eng)

(* Shutdown is never quiet: after [Machine.run], every idle loop has
   returned rather than staying parked.  The coroutines left are threads'
   (the pageout daemon, made ready by the shutdown broadcast after the
   last idle loop exited), never an idle loop's. *)
let test_run_ends_idle_loops () =
  let m = Vm.Machine.create ~params:quiet () in
  let tr = Instrument.Trace.create () in
  Sim.Engine.set_tracer m.Vm.Machine.eng (Some tr);
  Vm.Machine.run m (fun self ->
      Sim.Cpu.step (Sim.Sched.current_cpu self) 500.0);
  let ended =
    List.filter_map
      (fun (s : Instrument.Trace.span) ->
        match s.attrs with
        | [ ("name", Instrument.Trace.Str name) ] -> Some name
        | _ -> None)
      (Instrument.Trace.spans tr)
  in
  Array.iter
    (fun cpu ->
      let name = Printf.sprintf "idle%d" (Sim.Cpu.id cpu) in
      Alcotest.(check bool) (name ^ " returned") true (List.mem name ended))
    (Sim.Sched.cpus m.Vm.Machine.sched);
  Alcotest.(check int) "only threads left"
    (Sim.Sched.live_threads m.Vm.Machine.sched)
    (Sim.Engine.live m.Vm.Machine.eng);
  Alcotest.(check int) "no event left" 0
    (Sim.Engine.pending m.Vm.Machine.eng)

let () =
  Alcotest.run "idle"
    [
      ( "re-park",
        [
          Alcotest.test_case "idle drain instants" `Quick
            test_idle_drain_instants;
          Alcotest.test_case "poke whose thread is stolen" `Quick
            test_poke_stolen;
          Alcotest.test_case "poke between quiet polls" `Quick
            test_poke_between_polls;
          Alcotest.test_case "run ends every idle loop" `Quick
            test_run_ends_idle_loops;
        ] );
    ]
