(* Cooperative thread scheduler over simulated CPUs.

   Each thread is its own coroutine; each CPU runs an idle-loop coroutine.
   A CPU is a baton: the idle loop hands it to a ready thread (waking the
   thread's parked coroutine and then parking itself), and gets it back
   when the thread blocks, yields or exits.  Interrupts are taken by
   whichever coroutine currently holds the CPU.

   The handoff protocol is careful about lost wakeups: a thread only
   becomes visible as Blocked/Ready from inside its suspend registration,
   at which point its wakener is guaranteed to exist. *)

type user_data = ..
type user_data += No_data

type state = Created | Ready | Running | Blocked | Finished

type thread = {
  tid : int;
  tname : string;
  mutable state : state;
  mutable cpu : Cpu.t option;
  mutable parked : Engine.wakener option;
  bound : int option; (* pin to a CPU id *)
  mutable home : int; (* cluster affinity: where the thread queues when
                         ready and which idle CPUs are poked first;
                         updated when a steal migrates the thread *)
  mutable data : user_data;
  mutable joiners : thread list;
  mutable wakeup_pending : bool;
      (* latch for wakeups that race with blocking, like Mach's
         thread_wakeup against a not-yet-asserted wait *)
  mutable run_time : float; (* filled on exit from cpu accounting deltas *)
}

(* A scheduler invariant does not hold.  Carries enough context to debug
   a fault-injection run: which CPU (-1 when the thread holds none — that
   being the broken invariant), which thread, and when.  [now] is nan
   where no engine handle is in scope (current_cpu). *)
exception
  Broken_invariant of { what : string; cpu : int; tid : int; now : float }

let () =
  Printexc.register_printer (function
    | Broken_invariant { what; cpu; tid; now } ->
        Some
          (Printf.sprintf
             "Sched.Broken_invariant: %s (cpu=%d tid=%d t=%.1f)" what cpu tid
             now)
    | _ -> None)

let broken ?(cpu = -1) ?(now = Float.nan) ~tid what =
  raise (Broken_invariant { what; cpu; tid; now })

type t = {
  eng : Engine.t;
  cpus : Cpu.t array;
  params : Params.t;
  cluster_ready : thread Queue.t array;
      (* unbound ready threads, one queue per cluster (length 1 = the
         historical global queue); idle CPUs steal across clusters *)
  cluster_of_cpu : int array; (* cpu id -> cluster *)
  bound_ready : thread Queue.t array;
  return_wakeners : Engine.wakener option array;
  mutable tid_counter : int;
  mutable live_threads : int;
  mutable started_threads : int;
  mutable pre_dispatch : Cpu.t -> unit;
  mutable actions_queued : Cpu.t -> bool;
      (* [pre_dispatch] has queued work for this CPU; while it has none,
         [pre_dispatch] must perform no effect *)
  mutable activate : thread -> Cpu.t -> unit;
  mutable deactivate : thread -> Cpu.t -> unit;
  mutable shutdown : bool;
}

let create eng cpus (params : Params.t) =
  {
    eng;
    cpus;
    params;
    cluster_ready = Array.init (Params.clusters params) (fun _ -> Queue.create ());
    cluster_of_cpu =
      Array.init (Array.length cpus) (fun id -> Params.cluster_of params id);
    bound_ready = Array.init (Array.length cpus) (fun _ -> Queue.create ());
    return_wakeners = Array.make (Array.length cpus) None;
    tid_counter = 0;
    live_threads = 0;
    started_threads = 0;
    pre_dispatch = (fun _ -> ());
    actions_queued = (fun _ -> false);
    activate = (fun _ _ -> ());
    deactivate = (fun _ _ -> ());
    shutdown = false;
  }

let live_threads t = t.live_threads
let cpus t = t.cpus
let engine t = t.eng

(* Wake one idle CPU that could run a newly-ready thread; unbound threads
   prefer an idle CPU in their home cluster before any other.  On a flat
   machine the home pass scans every CPU in id order — the historical
   behaviour — and the fallback pass is empty. *)
let poke t ~bound ~home =
  let try_poke cpu =
    if cpu.Cpu.idle then begin
      Engine.wake t.eng cpu.Cpu.sleeper;
      true
    end
    else false
  in
  match bound with
  | Some id -> ignore (try_poke t.cpus.(id))
  | None ->
      let n = Array.length t.cpus in
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        if t.cluster_of_cpu.(!i) = home && try_poke t.cpus.(!i) then
          found := true;
        incr i
      done;
      i := 0;
      while (not !found) && !i < n do
        if t.cluster_of_cpu.(!i) <> home && try_poke t.cpus.(!i) then
          found := true;
        incr i
      done

(* Pure (no effects): mark a thread runnable and poke an idle CPU.  Safe to
   call from timer callbacks and suspend registrations.  The push may make
   any parked idle loop's [quiet] false, also one the poke does not wake,
   so it disturbs the engine (Engine.idle_suspension). *)
let make_ready t th =
  (match th.state with
  | Finished | Running | Ready -> invalid_arg "Sched.make_ready: bad state"
  | Created | Blocked -> ());
  th.state <- Ready;
  (match th.bound with
  | Some id -> Queue.push th t.bound_ready.(id)
  | None -> Queue.push th t.cluster_ready.(th.home));
  Engine.disturb t.eng;
  poke t ~bound:th.bound ~home:th.home

(* Wake a blocked thread (pure).  Waking a running thread latches the
   wakeup so the thread's next [block] returns immediately; callers
   therefore re-check their condition in a loop. *)
let wakeup t th =
  match th.state with
  | Blocked -> make_ready t th
  | Running -> th.wakeup_pending <- true
  | Created | Ready | Finished -> ()

(* Dispatch order: this CPU's bound queue, its cluster's queue, then
   steal from the other clusters (nearest first).  A stolen thread's
   home moves with it.  Flat machines have one cluster, so this is
   exactly the historical bound-then-global order. *)
let next_thread t (cpu : Cpu.t) =
  let q = t.bound_ready.(Cpu.id cpu) in
  if not (Queue.is_empty q) then Some (Queue.pop q)
  else begin
    let k = Array.length t.cluster_ready in
    let mine = t.cluster_of_cpu.(Cpu.id cpu) in
    let found = ref None in
    let i = ref 0 in
    while Option.is_none !found && !i < k do
      let q = t.cluster_ready.((mine + !i) mod k) in
      if not (Queue.is_empty q) then begin
        let th = Queue.pop q in
        th.home <- mine;
        found := Some th
      end;
      incr i
    done;
    !found
  end

(* Whether a thread is ready for [cpu].  Every quiet idle poll asks, so
   it scans with a plain loop: [Array.exists] would allocate its
   predicate's closure on each call. *)
let has_ready t (cpu : Cpu.t) =
  (not (Queue.is_empty t.bound_ready.(Cpu.id cpu)))
  ||
  let qs = t.cluster_ready in
  let i = ref 0 in
  while !i < Array.length qs && Queue.is_empty qs.(!i) do
    incr i
  done;
  !i < Array.length qs

(* Give the CPU back to its idle loop (pure). *)
let hand_cpu_back t (cpu : Cpu.t) =
  match t.return_wakeners.(Cpu.id cpu) with
  | Some w -> Engine.wake t.eng w
  | None -> ()

(* The idle loop's next iteration would find nothing to do: no shutdown,
   no deliverable interrupt, no ready thread, no queued consistency
   action.  Such an iteration only writes (through [pre_dispatch], which
   then performs no effect, and the park) and parks again, so the engine
   may make those writes instead of resuming the loop.  Every write that
   may turn it false disturbs the engine: [stop], [make_ready], the poke
   or interrupt post that wakes the parked loop, and the writer behind
   [actions_queued]. *)
let quiet t (cpu : Cpu.t) =
  (not t.shutdown)
  && (not (Cpu.has_deliverable cpu))
  && (not (has_ready t cpu))
  && not (t.actions_queued cpu)

(* The idle loop's park: nap [Params.idle_poll], interruptibly.  The
   engine re-parks a quiet loop through [settle] and [park], or re-arms
   its poll timer [period] later in place, without resuming it
   (Engine.idle_suspension). *)
let nap t (cpu : Cpu.t) =
  let period = t.params.idle_poll in
  Engine.idle_suspension
    {
      Engine.quiet = (fun () -> quiet t cpu);
      settle = (fun () -> t.pre_dispatch cpu);
      park =
        (fun w ->
          cpu.Cpu.idle <- true;
          cpu.Cpu.acct.sleep_dt <- period;
          Cpu.arm_poll cpu w);
    }

(* The per-CPU idle loop.  Checks for queued consistency actions (the
   paper's idle-processor optimisation: idle CPUs are not interrupted but
   must drain their action queues before becoming active), then dispatches
   a ready thread or naps. *)
let idle_loop t (cpu : Cpu.t) () =
  let nap = nap t cpu in
  while not t.shutdown do
    Cpu.check_interrupts cpu;
    (* Leave the idle set *before* draining queued consistency actions so
       that a shootdown initiated in between interrupts us like any other
       active processor (otherwise we could start translating with stale
       entries the initiator thinks nobody holds). *)
    if has_ready t cpu then cpu.Cpu.idle <- false;
    t.pre_dispatch cpu;
    match next_thread t cpu with
    | Some th ->
        cpu.Cpu.idle <- false;
        Cpu.raw_delay cpu t.params.ctx_switch_cost;
        t.activate th cpu;
        th.cpu <- Some cpu;
        th.state <- Running;
        let parked =
          match th.parked with
          | Some w -> w
          | None ->
              broken ~cpu:(Cpu.id cpu) ~now:(Engine.now t.eng) ~tid:th.tid
                "dispatching a thread that never parked"
        in
        Engine.suspend (fun w ->
            t.return_wakeners.(Cpu.id cpu) <- Some w;
            Engine.wake t.eng parked);
        t.return_wakeners.(Cpu.id cpu) <- None;
        cpu.Cpu.idle <- true
    | None ->
        Engine.suspend_with nap;
        cpu.Cpu.sleeper <- Engine.no_wakener
  done

let start t =
  Array.iter
    (fun cpu ->
      Engine.spawn t.eng
        ~name:(Printf.sprintf "idle%d" (Cpu.id cpu))
        (idle_loop t cpu))
    t.cpus

let stop t =
  t.shutdown <- true;
  Engine.disturb t.eng

let stopped t = t.shutdown

(* Must be called from the thread's own coroutine while it holds a CPU.
   [requeue] decides where the thread reappears: immediately Ready (yield),
   or Blocked awaiting an external wakeup. *)
let relinquish t th ~requeue =
  let cpu =
    match th.cpu with
    | Some c -> c
    | None ->
        broken ~now:(Engine.now t.eng) ~tid:th.tid
          "relinquish: thread has no CPU"
  in
  t.deactivate th cpu;
  Engine.suspend (fun w ->
      th.parked <- Some w;
      th.cpu <- None;
      th.state <- Blocked;
      if requeue || th.wakeup_pending then begin
        th.wakeup_pending <- false;
        make_ready t th
      end;
      hand_cpu_back t cpu);
  th.parked <- None

let block t th = relinquish t th ~requeue:false

let yield t th =
  match th.cpu with
  | Some cpu when has_ready t cpu -> relinquish t th ~requeue:true
  | Some _ -> ()
  | None ->
      broken ~now:(Engine.now t.eng) ~tid:th.tid "yield: thread has no CPU"

(* Block for [dt] simulated microseconds (I/O waits, pager latency). *)
let sleep t th dt =
  let cpu =
    match th.cpu with
    | Some c -> c
    | None ->
        broken ~now:(Engine.now t.eng) ~tid:th.tid "sleep: thread has no CPU"
  in
  t.deactivate th cpu;
  Engine.suspend (fun w ->
      th.parked <- Some w;
      th.cpu <- None;
      th.state <- Blocked;
      if th.wakeup_pending then begin
        th.wakeup_pending <- false;
        make_ready t th
      end
      else Engine.after t.eng dt (fun () -> wakeup t th);
      hand_cpu_back t cpu);
  th.parked <- None

let finish t th =
  let cpu =
    match th.cpu with
    | Some c -> c
    | None ->
        broken ~now:(Engine.now t.eng) ~tid:th.tid "finish: thread has no CPU"
  in
  t.deactivate th cpu;
  th.state <- Finished;
  t.live_threads <- t.live_threads - 1;
  List.iter (fun j -> wakeup t j) th.joiners;
  th.joiners <- [];
  th.cpu <- None;
  hand_cpu_back t cpu

(* Create a thread; it parks itself and enters the ready queue, to run when
   an idle CPU dispatches it. *)
let create_thread t ?bound ?(name = "thread") body =
  t.tid_counter <- t.tid_counter + 1;
  let home =
    match bound with Some id -> t.cluster_of_cpu.(id) | None -> 0
  in
  let th =
    {
      tid = t.tid_counter;
      tname = name;
      state = Created;
      cpu = None;
      parked = None;
      bound;
      home;
      data = No_data;
      joiners = [];
      wakeup_pending = false;
      run_time = 0.0;
    }
  in
  t.live_threads <- t.live_threads + 1;
  t.started_threads <- t.started_threads + 1;
  Engine.spawn t.eng ~name (fun () ->
      Engine.suspend (fun w ->
          th.parked <- Some w;
          make_ready t th);
      th.parked <- None;
      body th;
      finish t th);
  th

let join t self target =
  while target.state <> Finished do
    target.joiners <- self :: target.joiners;
    block t self
  done

let current_cpu th =
  match th.cpu with
  | Some c -> c
  | None -> broken ~tid:th.tid "current_cpu: thread not running"
