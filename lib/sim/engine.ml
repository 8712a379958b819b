(* Discrete-event engine.

   Simulated activities (CPU idle loops, threads, daemons) are coroutines
   implemented with OCaml effects.  A coroutine performs [Delay dt] to let
   simulated time pass, or [Suspend register] to park itself until some
   other coroutine wakes it.  Running the simulation is popping events in
   (time, seq) order until nothing is pending or a time limit is reached.

   The pending events live in two queues.  The poll lane, a FIFO ring,
   holds the idle loops' poll timers ({!poll_after}): each is appended
   when it is due after [now] and no earlier than the lane's tail, and
   goes to the heap otherwise.  Every idle loop polls with the same
   period, so in practice every poll timer is appended.  The heap holds
   every other event.  One scheduled
   at or before [now] is clamped to [now], and its fresh seq puts it
   after every entry already due then.

   A pop takes the lesser of the heap's root and the poll lane's head, by
   (time, seq).  That is exactly (time, seq) order:
   - The poll lane's entries arrive in (time, seq) order: each one is
     due no earlier than the one before it, and seqs only grow.  So its
     head is its least entry, and the lesser of two heads is the least
     of both queues.
   - A timer that fires a parked coroutine's wakener queues the wake at
     [now].  If neither the heap's root nor the poll lane's head is due
     at [now], the wake is what the rule above pops next, so the timer's
     dispatch runs it there and then ({!fire}), with the count and
     budget check it would have had.  It takes no seq: seqs only order
     queued entries, and it is never queued.  A controlled pop would
     have popped that wake alone, with no choice to offer, so an
     explorer sees the same.
   Polls thus skip the heap's sift-up and sift-down, most wakes skip
   every queue, and the event stream is the one a heap alone would give.

   An idle loop that parks through {!idle_suspension} leaves the engine a
   [quiet] predicate.  When its wake is dispatched and the predicate says
   the loop's next iteration would find nothing to do, the engine makes
   that iteration's writes and re-parks the loop on a fresh wakener with
   the same continuation: the wake event is counted as ever, and the
   continue and perform pair is skipped.

   Most events are such polls, in runs: between two other events, every
   idle CPU polls again and again.  So with no explorer attached, [step]
   and [run_until] first re-arm the run at the poll lane's head in place
   ({!rearm_quiet_polls}): count the timer and its wake, settle, and
   rotate the same cell to the ring's tail one period later, with no
   wakener taken, no wake queued, nothing allocated and no pointer
   stored.  That is exactly what
   dispatching each poll would do:
   - A timer's pop only takes its wakener and queues the wake, so polls
     tied at one instant, which would pop timer, timer, wake, wake, can be
     handled timer and wake, timer and wake: nothing reads a wakener's
     state between them, and the budget check reserves room for the whole
     tied run, so it cannot trip between two orders that differ.
   - A head strictly earlier than the heap's root is the next event, and
     its wake would run in its own dispatch: no other event runs between
     the timer and its wake.  A
     heap entry at the same instant would run between them.
   - A loop parked on an unfired wakener [w] has [cpu.idle] true,
     [sleep_dt] equal to its period and [sleeper == w], written by its
     park and by nothing else while it is parked, and the head is [w]'s
     only timer.  So keeping the loop on [w] leaves the state a fresh
     wakener's park would write; only [w]'s identity differs, and only the
     idle CPU's own [sleeper] field holds it.
   - The re-armed entry takes a fresh seq, later than every seq already
     queued, as the fresh park's timer would have; the wake seqs it skips
     were only ever compared with each other, so every queued pair of
     entries keeps its relative order, and so does every later push.

   Per-label event accounting goes through Instrument.Metrics counters.
   The counter handle is resolved when the event is *scheduled* — the
   handles for the engine's own labels are resolved once at creation — so
   the per-event [step] does a direct field increment instead of a
   string-keyed hashtable lookup.

   The heap payload is a three-word variant, not a closure: the hot event
   shapes (timer expiry, wake, delay resumption — the idle-loop polling
   traffic that dominates every run) carry their wakener or continuation
   directly, so scheduling them allocates one small short-lived cell and
   dispatching them allocates nothing.  Only [at]/[after]/[spawn] — the
   cold, user-facing sites — carry a thunk.  Both queues keep their
   payloads in a slab and move only keys and slab indices ({!Heap},
   {!Lane}): the arrays live in the major heap, where every pointer
   store pays a write barrier, so a cell is stored once when it is
   queued and the slot cleared once when it leaves, however far it
   sifts, and a quiet poll's cell stays put while its key rotates.  A
   free-list cell pool was tried and measured *slower*: recycled cells
   get promoted to the major heap, so refilling them with young pointers
   pays a write barrier and remembered-set entry per store, which costs
   more than letting the minor collector reclaim dead three-word cells
   for free. *)

(* The poll lane: a FIFO ring of (time, seq, payload) entries, growable,
   pushed in (time, seq) order so the head is always the least.  It uses
   {!Heap}'s indirection: the keys and a slab index live in the ring, by
   ring position, and the payloads in a slab.  [ids] is a permutation of
   [0 .. capacity - 1] whose positions past the tail hold the free slab
   indices, so moving an entry within the ring ({!rotate}) stores no
   pointer, and a push or pop stores one. *)
module Lane = struct
  type 'a t = {
    mutable evs : 'a array; (* the slab *)
    mutable ids : int array; (* ring position -> slab index *)
    mutable times : float array;
    mutable seqs : int array;
    mutable head : int; (* position of the oldest entry *)
    mutable len : int;
    dummy : 'a;
  }

  (* [capacity] is a power of two: positions wrap with a mask. *)
  let create ~capacity dummy =
    {
      evs = Array.make capacity dummy;
      ids = Array.init capacity Fun.id;
      times = Array.make capacity 0.0;
      seqs = Array.make capacity 0;
      head = 0;
      len = 0;
      dummy;
    }

  let[@inline] slot q j = (q.head + j) land (Array.length q.ids - 1)

  (* Double the ring, unrolling it so the oldest entry lands at position
     0.  The ring is full, so [ids] is a permutation of [0 .. n - 1]; the
     new slab indices [n .. 2n - 1] are the free ones. *)
  let grow q =
    let n = Array.length q.ids in
    let unroll a fill =
      let b = Array.make (2 * n) fill in
      for j = 0 to q.len - 1 do
        b.(j) <- a.(slot q j)
      done;
      b
    in
    q.times <- unroll q.times 0.0;
    q.seqs <- unroll q.seqs 0;
    q.evs <- Array.append q.evs (Array.make n q.dummy);
    (* last: [slot] wraps with the length of [ids] *)
    let ids = unroll q.ids 0 in
    for j = n to (2 * n) - 1 do
      ids.(j) <- j
    done;
    q.ids <- ids;
    q.head <- 0

  (* Append an entry; [time] must be at or after the tail's.  Inlined, so
     the time reaches the array unboxed. *)
  let[@inline] push q time seq ev =
    if q.len = Array.length q.ids then grow q;
    let i = slot q q.len in
    q.times.(i) <- time;
    q.seqs.(i) <- seq;
    q.evs.(q.ids.(i)) <- ev;
    q.len <- q.len + 1

  (* The head's key and payload, the tail's time; the ring must be
     non-empty. *)
  let[@inline] head_time q = q.times.(q.head)
  let[@inline] head_seq q = q.seqs.(q.head)
  let[@inline] head_ev q = q.evs.(q.ids.(q.head))
  let[@inline] tail_time q = q.times.(slot q (q.len - 1))

  (* Remove the oldest entry and return its payload; the ring must be
     non-empty.  Its slab index stays at its position, now past the
     tail. *)
  let pop q =
    let id = q.ids.(q.head) in
    let ev = q.evs.(id) in
    q.evs.(id) <- q.dummy (* release the payload reference *);
    q.head <- slot q 1;
    q.len <- q.len - 1;
    ev

  (* Move the oldest entry to the tail with the key [(time, seq)], which
     must be at or after the tail's: a pop and a push of the same payload,
     storing no pointer.  The head's slab index swaps places with the
     free one just past the tail (the same position when the ring is
     full), so the ring's positions stay a permutation.  Inlined, so the
     time reaches the array unboxed. *)
  let[@inline] rotate q time seq =
    let i = q.head and j = slot q q.len in
    let id = q.ids.(i) in
    q.ids.(i) <- q.ids.(j);
    q.ids.(j) <- id;
    q.times.(j) <- time;
    q.seqs.(j) <- seq;
    q.head <- slot q 1

  (* Oldest first, i.e. in (time, seq) order. *)
  let iter f q =
    for j = 0 to q.len - 1 do
      let i = slot q j in
      f q.times.(i) q.seqs.(i) q.evs.(q.ids.(i))
    done
end

(* Diagnostic payload for a blown event budget: when it happened, how much
   work was done, and what was still scheduled — the pending-kind summary
   usually names the spinning site directly (e.g. 100k "spin" events). *)
type runaway = {
  runaway_at : float; (* sim time when the budget tripped *)
  runaway_events : int; (* events executed so far *)
  runaway_pending : (string * int) list;
      (* pending events by schedule label, most frequent first *)
}

exception Runaway of runaway

let () =
  Printexc.register_printer (function
    | Runaway r ->
        let pending =
          String.concat ", "
            (List.map
               (fun (label, n) -> Printf.sprintf "%s:%d" label n)
               r.runaway_pending)
        in
        Some
          (Printf.sprintf
             "Engine.Runaway: %d events executed at t=%.1f (pending: %s)"
             r.runaway_events r.runaway_at pending)
    | _ -> None)

type wakener = {
  mutable fired : bool;
  mutable cont : parked;
      (* the parked coroutine; taken (set to [Gone]) when the wake fires *)
}

and parked =
  | Gone (* nothing to resume: taken, or never parked *)
  | Cont of (unit, unit) Effect.Deep.continuation
  | Idle of (unit, unit) Effect.Deep.continuation * idle
      (* an idle loop, which the engine may re-park instead of resuming *)

and idle = {
  quiet : unit -> bool; (* the loop's next iteration would do nothing *)
  settle : unit -> unit; (* that iteration's writes before it parks *)
  park : wakener -> unit; (* the park's registration *)
  period : float; (* how far ahead [park] arms the poll timer *)
}

(* Pre-fired sentinel: waking it is a no-op.  Never mutated (fired stays
   true), so sharing it across engines — and domains — is safe. *)
let no_wakener = { fired = true; cont = Gone }

(* One scheduled event.  The counter comes first in every arm so [step]
   can increment it with a single or-pattern match. *)
type ev =
  | Ev_thunk of Instrument.Metrics.counter * (unit -> unit)
      (* at / after / spawn: run the thunk *)
  | Ev_timer of Instrument.Metrics.counter * wakener
      (* timer expiry: wake the wakener (no-op if already woken) *)
  | Ev_resume of
      Instrument.Metrics.counter * (unit, unit) Effect.Deep.continuation
      (* delay expiry: resume the coroutine *)
  | Ev_wake of Instrument.Metrics.counter * parked
      (* wake delivery: resume the parked coroutine, or re-park it *)

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (wakener -> unit) -> unit Effect.t
  | Suspend_idle : idle -> unit Effect.t

(* The clock, in a float-only record so that it is stored unboxed: a
   float field of [t] would be a pointer to a box, and every move of the
   clock would allocate one and pay a write barrier. *)
type clock = { mutable now : float }

type t = {
  clock : clock;
  mutable seq : int;
  mutable events : int; (* total processed, for runaway detection *)
  mutable events_flushed : int; (* portion already added to the global *)
  mutable max_events : int;
  heap : ev Heap.t; (* every event but the poll lane's *)
  polls : ev Lane.t; (* idle poll timers, about one per CPU *)
  prng : Prng.t;
  mutable live : int; (* spawned coroutines not yet finished *)
  metrics : Instrument.Metrics.t; (* per-label processed-event counters *)
  mutable tracer : Instrument.Trace.t option; (* structured span events *)
  mutable explore : Explore.t option;
      (* controlled-scheduling oracle; None (and cost-free) unless a
         model-checking run attaches one *)
  (* pre-resolved counter handles for the engine's own schedule sites *)
  c_at : Instrument.Metrics.counter;
  c_after : Instrument.Metrics.counter;
  c_delay : Instrument.Metrics.counter;
  c_wake : Instrument.Metrics.counter;
  c_spawn : Instrument.Metrics.counter;
}

(* Events processed by every engine that finished a [run]/[run_until],
   across all domains — the denominator for the bench harness's
   allocation-per-event telemetry. *)
let global_events = Atomic.make 0
let total_events () = Atomic.get global_events

let flush_events t =
  let delta = t.events - t.events_flushed in
  if delta > 0 then begin
    t.events_flushed <- t.events;
    ignore (Atomic.fetch_and_add global_events delta)
  end

let create ?(seed = 0x5EEDL) ?(max_events = 200_000_000) () =
  let metrics = Instrument.Metrics.create () in
  let c_at = Instrument.Metrics.counter metrics "at" in
  let dummy = Ev_thunk (c_at, ignore) in
  {
    clock = { now = 0.0 };
    seq = 0;
    events = 0;
    events_flushed = 0;
    max_events;
    heap = Heap.create ~dummy ();
    polls = Lane.create ~capacity:16 dummy;
    prng = Prng.create seed;
    live = 0;
    metrics;
    tracer = None;
    explore = None;
    c_at;
    c_after = Instrument.Metrics.counter metrics "after";
    c_delay = Instrument.Metrics.counter metrics "delay";
    c_wake = Instrument.Metrics.counter metrics "wake";
    c_spawn = Instrument.Metrics.counter metrics "spawn";
  }

let now t = t.clock.now
let prng t = t.prng
let live t = t.live
let events_processed t = t.events
let pending t = Heap.length t.heap + t.polls.len

(* All schedule paths funnel through here so (time clamp, seq assignment,
   queue order) are identical whatever the event shape.  A time at or
   before [now] is clamped to [now]. *)
let[@inline] push_ev t time ev =
  t.seq <- t.seq + 1;
  Heap.push t.heap (if time <= t.clock.now then t.clock.now else time) t.seq ev

let schedule t counter time thunk = push_ev t time (Ev_thunk (counter, thunk))

let counter_of t = function
  | "at" -> t.c_at
  | "after" -> t.c_after
  | "delay" -> t.c_delay
  | "wake" -> t.c_wake
  | "spawn" -> t.c_spawn
  | label -> Instrument.Metrics.counter t.metrics label

let at ?(label = "at") t time thunk = schedule t (counter_of t label) time thunk

let after ?(label = "after") t dt thunk =
  schedule t (counter_of t label) (t.clock.now +. dt) thunk

let metrics t = t.metrics
let label_counts t = Instrument.Metrics.counter_values t.metrics
let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer
let set_explore t ex = t.explore <- ex
let explore t = t.explore
let set_max_events t n = t.max_events <- n

let delay dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative duration";
  Effect.perform (Delay dt)

let suspend register = Effect.perform (Suspend register)

type suspension = unit Effect.t

let suspension register = Suspend register
let idle_suspension idle = Suspend_idle idle
let suspend_with s = Effect.perform s

(* Fire [w] and take its parked coroutine: [Gone] if it had already
   fired, or if nothing was parked on it. *)
let[@inline] take w =
  if w.fired then Gone
  else begin
    w.fired <- true;
    let c = w.cont in
    w.cont <- Gone;
    c
  end

let wake t w =
  match take w with
  | Gone -> ()
  | (Cont _ | Idle _) as c -> push_ev t t.clock.now (Ev_wake (t.c_wake, c))

(* Timer-driven wake: schedules an event that, when it pops, wakes [w]
   (a no-op if something else woke it first).  Equivalent to
   [after t dt (fun () -> wake t w)] without the closure. *)
let wake_after t dt w =
  push_ev t (t.clock.now +. dt) (Ev_timer (t.c_after, w))

(* [wake_after] through the poll lane, when the order allows it: a timer
   due after [now] and no earlier than the lane's tail keeps the lane in
   (time, seq) order.  Any other goes where [wake_after] would put it. *)
let poll_after t dt w =
  let time = t.clock.now +. dt in
  let p = t.polls in
  if time > t.clock.now && (p.len = 0 || time >= Lane.tail_time p) then begin
    t.seq <- t.seq + 1;
    Lane.push p time t.seq (Ev_timer (t.c_after, w))
  end
  else wake_after t dt w

(* Argument slot of a fiber's [Delay] handler: a float-only record, so the
   duration is stored unboxed. *)
type delay_slot = { mutable dt : float }

let spawn t ?(name = "coroutine") fn =
  t.live <- t.live + 1;
  let started = t.clock.now in
  let open Effect.Deep in
  (* One handler per effect per fiber: [effc] leaves the effect's argument
     in a slot and returns the fiber's shared handler, so a perform
     allocates no closure.  The runtime applies the handler as soon as
     [effc] returns, so a slot is never read after a later overwrite.
     [Suspend_idle] is the exception: an idle loop performs it only after
     a real resume, which quiet polls never get, so its closure is not
     worth a slot. *)
  let delay_arg = { dt = 0.0 } in
  let suspend_arg = ref ignore in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        push_ev t (t.clock.now +. delay_arg.dt) (Ev_resume (t.c_delay, k)))
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        !suspend_arg { fired = false; cont = Cont k })
  in
  let fiber () =
    match_with fn ()
      {
        retc =
          (fun () ->
            t.live <- t.live - 1;
            match t.tracer with
            | Some tr ->
                Instrument.Trace.emit tr ~name:"engine.coroutine" ~cpu:(-1)
                  ~at:started ~dur:(t.clock.now -. started)
                  ~attrs:[ ("name", Instrument.Trace.Str name) ]
                  ()
            | None -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) continuation -> unit) option ->
            match eff with
            | Delay dt ->
                delay_arg.dt <- dt;
                on_delay
            | Suspend register ->
                suspend_arg := register;
                on_suspend
            | Suspend_idle idle ->
                Some
                  (fun (k : (unit, unit) continuation) ->
                    idle.park { fired = false; cont = Idle (k, idle) })
            | _ -> None);
      }
  in
  schedule t t.c_spawn t.clock.now fiber

(* Deliver a wake.  A quiet idle loop is re-parked where it stands: its
   settle and park make the writes, and arm the timer, that resuming it
   would have made before it parked again, so the event stream and the
   seqs are the same; the wakener is fresh, so a stale timer or poke on
   the old one stays a no-op. *)
let resume = function
  | Cont k -> Effect.Deep.continue k ()
  | Idle (k, idle) as c ->
      if idle.quiet () then begin
        idle.settle ();
        idle.park { fired = false; cont = c }
      end
      else Effect.Deep.continue k ()
  | Gone -> ()

let[@inline] counter_of_ev = function
  | Ev_thunk (c, _) | Ev_timer (c, _) | Ev_resume (c, _) | Ev_wake (c, _) -> c

(* Whether the heap's root precedes the poll lane's head in (time, seq)
   order; false if the heap is empty, true if only the poll lane is. *)
let[@inline] heap_first t =
  (not (Heap.is_empty t.heap))
  && (t.polls.len = 0
     ||
     let ht = Heap.root_time t.heap and pt = Lane.head_time t.polls in
     ht < pt || (ht = pt && Heap.root_seq t.heap < Lane.head_seq t.polls))

(* Time of the earlier of the heap's root and the poll lane's head; one of
   them must be non-empty. *)
let[@inline] next_time t =
  if heap_first t then Heap.root_time t.heap else Lane.head_time t.polls

(* Pending events as (delay-from-now, schedule label) pairs, sorted.
   Part of the model checker's state fingerprint: together with the
   machine snapshot, the scheduled future determines the rest of a run
   up to the remaining choice points. *)
let pending_summary t =
  let acc = ref [] in
  let add time _seq ev =
    let label = Instrument.Metrics.counter_name (counter_of_ev ev) in
    acc := (time -. t.clock.now, label) :: !acc
  in
  Heap.iter_entries add t.heap;
  Lane.iter add t.polls;
  List.sort compare !acc

(* Controlled pop under an attached explorer: collect every event tied
   at the next instant, offer the explorer a choice among the *live*
   ones, and push the losers back.  The ties are the heap's and the
   poll lane's entries at that instant, merged by seq, which is (time,
   seq) order: FIFO is alternative 0.  The losers stay due at that
   instant, so they go back into the heap at it, each with its own seq,
   and so pop in seq order.  The clock moves only after the choice: the
   fingerprints the explorer takes inside [choose] measure pending
   delays from the instant before.

   An expired timer whose wakener already fired is a pure no-op —
   branching on its position would multiply schedules without changing
   any behaviour — so such events are elided from the choice (the
   harness's cheapest partial-order reduction) and only run, in FIFO
   order, when nothing live shares the instant. *)
let pop_controlled t ex =
  let h = t.heap and p = t.polls in
  let time = next_time t in
  let ties = ref [] in
  let more = ref true in
  while !more do
    if heap_first t && Heap.root_time h = time then begin
      let seq = Heap.root_seq h in
      ties := (seq, Heap.pop_payload h) :: !ties
    end
    else if p.len > 0 && Lane.head_time p = time then begin
      let seq = Lane.head_seq p in
      ties := (seq, Lane.pop p) :: !ties
    end
    else more := false
  done;
  let ties = List.rev !ties in
  let live =
    List.filter
      (fun (_, ev) -> match ev with Ev_timer (_, w) -> not w.fired | _ -> true)
      ties
  in
  Explore.note_elision ex (List.length ties - List.length live);
  let cseq, cev =
    match live with
    | [] -> List.hd ties (* all inert: run the oldest no-op *)
    | [ only ] -> only
    | _ :: _ :: _ ->
        let c = Explore.choose ex Explore.Tie (List.length live) in
        List.nth live c
  in
  t.clock.now <- time;
  List.iter (fun (seq, ev) -> if seq <> cseq then Heap.push h time seq ev) ties;
  cev

(* Summarise what is still scheduled, by label, most frequent first: the
   stuck site usually dominates the histogram.  The event that tripped
   the budget, counted under [c], has not executed, so it counts as
   pending too. *)
let runaway t c =
  let tally = Hashtbl.create 16 in
  let tick c =
    let name = Instrument.Metrics.counter_name c in
    let n = try Hashtbl.find tally name with Not_found -> 0 in
    Hashtbl.replace tally name (n + 1)
  in
  let count ev = tick (counter_of_ev ev) in
  tick c;
  Heap.iter_payloads count t.heap;
  Lane.iter (fun _time _seq ev -> count ev) t.polls;
  let pending =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) tally []
    |> List.sort (fun (na, a) (nb, b) ->
           if a <> b then compare b a else compare na nb)
  in
  Runaway
    {
      runaway_at = t.clock.now;
      runaway_events = t.events;
      runaway_pending = pending;
    }

(* Pop the next event: the lesser of the heap's root and the poll lane's
   head. *)
let pop t =
  if heap_first t then begin
    let time = Heap.root_time t.heap in
    let ev = Heap.pop_payload t.heap in
    t.clock.now <- time;
    ev
  end
  else begin
    let time = Lane.head_time t.polls in
    let ev = Lane.pop t.polls in
    t.clock.now <- time;
    ev
  end

(* Whether nothing is due at [now]: the earlier of the heap's root and the
   poll lane's head, if any, is due later. *)
let[@inline] none_due_now t =
  (Heap.is_empty t.heap && t.polls.len = 0) || next_time t > t.clock.now

(* Count one event under its label's counter [c] and charge it to the
   budget.  An event that trips the budget does not run. *)
let[@inline] count t c =
  Instrument.Metrics.inc c;
  t.events <- t.events + 1;
  if t.events > t.max_events then raise (runaway t c)

(* A timer's expiry.  When nothing else is due at [now], the wake it
   would queue would be the next event to pop, so it runs here instead:
   the same count and budget check as that event, with no
   allocation and no heap traffic.  An explorer would pop that wake
   alone, without a choice, so it sees no difference. *)
let fire t w =
  if not (none_due_now t) then wake t w
  else
    match take w with
    | Gone -> ()
    | (Cont _ | Idle _) as c ->
        count t t.c_wake;
        resume c

(* Pop and run the next event; some queue must be non-empty. *)
let dispatch t =
  let ev =
    match t.explore with None -> pop t | Some ex -> pop_controlled t ex
  in
  count t (counter_of_ev ev);
  match ev with
  | Ev_thunk (_, thunk) -> thunk ()
  | Ev_timer (_, w) -> fire t w
  | Ev_resume (_, k) -> Effect.Deep.continue k ()
  | Ev_wake (_, c) -> resume c

(* Whether the poll lane's head is the next event, due by [limit], with
   room in the budget for two events per poll-lane entry. *)
let[@inline] poll_next t limit =
  let p = t.polls in
  p.len > 0
  && Lane.head_time p <= limit
  && (Heap.is_empty t.heap || Lane.head_time p < Heap.root_time t.heap)
  && t.events + (2 * p.len) <= t.max_events

(* Re-arm the run of quiet idle polls at the poll lane's head, in place.
   While the head is due strictly before the heap's root and no later
   than [limit], and is the poll timer of an idle loop still parked on it
   whose next iteration would be quiet, the head is what [dispatch] would
   pop, and its wake would run in the timer's dispatch and re-park the
   loop ({!fire}, {!resume}).  So this counts the timer and the wake,
   settles, and rotates the same cell to the ring's tail one period later
   with a fresh seq, which is popping it and pushing it back without the
   two pointer stores: the loop stays parked on the same wakener, a
   stand-in for the fresh one (the header says why that is exact).  A
   head that would go back out of the ring's order is popped and
   re-parked through [park].

   The budget check reserves two events for every entry in the poll lane,
   not just the head's two: a run tied at one instant then fits whole, so
   the budget never trips between the order this loop counts in (timer,
   wake, timer, wake) and the one dispatch would (timer, timer, wake,
   wake).  The clock moves to the head before [quiet] is asked, as the
   pop would move it. *)
let rearm_quiet_polls t limit =
  let p = t.polls in
  let more = ref true in
  while !more && poll_next t limit do
    match Lane.head_ev p with
    | Ev_timer (c, ({ fired = false; cont = Idle (_, idle) } as w)) ->
        let time = Lane.head_time p in
        t.clock.now <- time;
        if idle.quiet () then begin
          Instrument.Metrics.inc c;
          Instrument.Metrics.inc t.c_wake;
          t.events <- t.events + 2;
          idle.settle ();
          (* the head is still queued: with [next] after [time], the ring
             keeps its order iff [next] is no earlier than the tail,
             which is the head itself when it is alone *)
          let next = time +. idle.period in
          if next > time && next >= Lane.tail_time p then begin
            t.seq <- t.seq + 1;
            Lane.rotate p next t.seq
          end
          else begin
            ignore (Lane.pop p);
            idle.park w
          end
        end
        else more := false
    | _ -> more := false
  done

(* The loop's entry test, inline so that a step it cannot help costs no
   call.  An attached explorer must be offered every tie of two live
   polls, so the loop is off under one. *)
let[@inline] rearm t limit =
  if Option.is_none t.explore && poll_next t limit then
    rearm_quiet_polls t limit

let step t =
  rearm t infinity;
  if Heap.is_empty t.heap && t.polls.len = 0 then false
  else begin
    dispatch t;
    true
  end

let run t =
  while step t do
    ()
  done;
  flush_events t

let run_until t limit =
  if limit < t.clock.now then
    invalid_arg "Engine.run_until: limit is before the current time";
  let continue_ = ref true in
  while !continue_ do
    rearm t limit;
    if Heap.is_empty t.heap && t.polls.len = 0 then continue_ := false
    else if next_time t > limit then begin
      t.clock.now <- limit;
      continue_ := false
    end
    else dispatch t
  done;
  flush_events t
