(* Tests for the discrete-event substrate: engine, bus, CPU/interrupts,
   spinlocks, scheduler and blocking sync. *)

let check_float msg ~eps expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_delay_accumulates () =
  let eng = Sim.Engine.create () in
  let finished = ref 0.0 in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 5.0;
      Sim.Engine.delay 7.5;
      finished := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "t after two delays" ~eps:1e-9 12.5 !finished

let test_fifo_same_instant () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.Engine.at eng 10.0 (fun () -> order := i :: !order)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_interleaving () =
  let eng = Sim.Engine.create () in
  let trace = ref [] in
  let log tag = trace := (tag, Sim.Engine.now eng) :: !trace in
  Sim.Engine.spawn eng (fun () ->
      log "a0";
      Sim.Engine.delay 10.0;
      log "a10");
  Sim.Engine.spawn eng (fun () ->
      log "b0";
      Sim.Engine.delay 4.0;
      log "b4";
      Sim.Engine.delay 4.0;
      log "b8");
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaved trace"
    [ ("a0", 0.); ("b0", 0.); ("b4", 4.); ("b8", 8.); ("a10", 10.) ]
    (List.rev !trace)

let test_suspend_wake () =
  let eng = Sim.Engine.create () in
  let woken_at = ref (-1.0) in
  let stash = ref None in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> stash := Some w);
      woken_at := Sim.Engine.now eng);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 42.0;
      match !stash with
      | Some w ->
          Sim.Engine.wake eng w;
          (* double wake must be harmless *)
          Sim.Engine.wake eng w
      | None -> Alcotest.fail "suspend never registered");
  Sim.Engine.run eng;
  check_float "woken at" ~eps:1e-9 42.0 !woken_at

let test_run_until () =
  let eng = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.Engine.after eng 10.0 tick
  in
  Sim.Engine.at eng 0.0 tick;
  Sim.Engine.run_until eng 95.0;
  Alcotest.(check int) "ticks within limit" 10 !count;
  check_float "clock stops at limit" ~eps:1e-9 95.0 (Sim.Engine.now eng)

let test_runaway () =
  let eng = Sim.Engine.create ~max_events:100 () in
  let rec tick () = Sim.Engine.after ~label:"stuck-tick" eng 1.0 tick in
  Sim.Engine.at eng 0.0 tick;
  match Sim.Engine.run eng with
  | () -> Alcotest.fail "expected Runaway"
  | exception Sim.Engine.Runaway r ->
      (* the diagnostic names the spinning site *)
      Alcotest.(check int) "events executed" 101 r.Sim.Engine.runaway_events;
      check_float "tripped at sim time" ~eps:1e-9 100.0
        r.Sim.Engine.runaway_at;
      Alcotest.(check (list (pair string int)))
        "pending histogram names the stuck label"
        [ ("stuck-tick", 1) ]
        r.Sim.Engine.runaway_pending

let test_determinism () =
  let run () =
    let eng = Sim.Engine.create ~seed:99L () in
    let prng = Sim.Engine.prng eng in
    let acc = ref [] in
    for _ = 1 to 3 do
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.delay (Sim.Prng.uniform prng 0.0 10.0);
          acc := Sim.Engine.now eng :: !acc)
    done;
    Sim.Engine.run eng;
    !acc
  in
  Alcotest.(check (list (float 0.0))) "same seed, same trace" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Heap (via qcheck): it holds exactly what was pushed, and pops come out
   sorted *)

let heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
    (fun pairs ->
      let h = Sim.Heap.create ~dummy:0 () in
      List.iteri (fun i (t, v) -> Sim.Heap.push h t i v) pairs;
      let pushed = List.mapi (fun i (t, v) -> (t, i, v)) pairs in
      let entries = ref [] in
      Sim.Heap.iter_entries (fun t i v -> entries := (t, i, v) :: !entries) h;
      let holds_pushed =
        Sim.Heap.length h = List.length pairs
        && List.sort compare !entries = List.sort compare pushed
      in
      let ok = ref holds_pushed in
      let prev = ref neg_infinity in
      while not (Sim.Heap.is_empty h) do
        let t, _, _ = Sim.Heap.pop h in
        if t < !prev then ok := false;
        prev := t
      done;
      !ok)

(* Pushes and pops interleaved past the initial capacity of 64, so [grow]
   runs with slab indices in use and freed.  Times come from a small set,
   so keys tie on time and order by seq, and every payload is distinct,
   so a slab index handed to two live entries shows as a lost payload.
   After every pop the popped entry is the least (time, seq) of the live
   ones, and [iter_entries] gives exactly the live multiset. *)
let heap_interleaved =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun t -> Some t) (oneofl [ 0.0; 1.0; 2.5; 4.0 ]));
          (1, return None);
        ])
  in
  QCheck.Test.make ~name:"heap push/pop interleaved past a grow" ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function Some t -> Printf.sprintf "push %g" t | None -> "pop")
              ops))
       QCheck.Gen.(list_size (int_range 100 400) op))
    (fun ops ->
      let h = Sim.Heap.create ~dummy:(-1) () in
      let live = ref [] and seq = ref 0 and ok = ref true in
      let entries () =
        let acc = ref [] in
        Sim.Heap.iter_entries (fun t i v -> acc := (t, i, v) :: !acc) h;
        List.sort compare !acc
      in
      let pop () =
        match List.sort compare !live with
        | [] -> ()
        | least :: rest ->
            if Sim.Heap.pop h <> least then ok := false;
            live := rest;
            if entries () <> rest then ok := false
      in
      List.iter
        (function
          | Some t ->
              incr seq;
              (* payload [1000 * seq]: distinct, and unlike the seq *)
              Sim.Heap.push h t !seq (1000 * !seq);
              live := (t, !seq, 1000 * !seq) :: !live
          | None -> pop ())
        ops;
      while !live <> [] do
        pop ()
      done;
      !ok && Sim.Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Engine queue order: the engine against a reference built on Sim.Heap
   alone, plus the same-instant edge cases *)

(* A generated program.  [Delay] and [Park] only act inside a coroutine;
   in a thunk they are skipped, by the engine and the reference alike. *)
type act =
  | Log of int  (** record (tag, now) *)
  | At of float * act list  (** thunk at an absolute time, maybe past *)
  | After of float * act list  (** thunk after a delay, often 0 *)
  | Spawn of act list  (** coroutine *)
  | Delay of float
  | Park of int  (** suspend, leaving the wakener in a slot *)
  | Wake of int  (** wake the slot's wakener, maybe already fired *)
  | Wake_after of float * int
  | Poll_after of float * int  (** [Wake_after] through the poll lane *)
  | Flag of int  (** give idle loop [k] one piece of work *)
  | Poke of int  (** wake idle loop [k]'s park, maybe already fired *)
  | Idle_loop of int * float  (** idle loop [k], polling at this period *)

let rec pp_act = function
  | Log i -> Printf.sprintf "Log %d" i
  | At (t, b) -> Printf.sprintf "At (%g, %s)" t (pp_acts b)
  | After (d, b) -> Printf.sprintf "After (%g, %s)" d (pp_acts b)
  | Spawn b -> Printf.sprintf "Spawn %s" (pp_acts b)
  | Delay d -> Printf.sprintf "Delay %g" d
  | Park i -> Printf.sprintf "Park %d" i
  | Wake i -> Printf.sprintf "Wake %d" i
  | Wake_after (d, i) -> Printf.sprintf "Wake_after (%g, %d)" d i
  | Poll_after (d, i) -> Printf.sprintf "Poll_after (%g, %d)" d i
  | Flag k -> Printf.sprintf "Flag %d" k
  | Poke k -> Printf.sprintf "Poke %d" k
  | Idle_loop (k, p) -> Printf.sprintf "Idle_loop (%d, %g)" k p

and pp_acts acts = "[" ^ String.concat "; " (List.map pp_act acts) ^ "]"

let n_slots = 3

(* Idle loops: loop [k] polls until [idle_horizon], logging (100 + k, now)
   for each piece of work and, when it ends, (200 + k, its iteration
   count).  An iteration with no work and before the horizon is quiet:
   it only counts itself and parks.  Work costs [idle_work] of delay.
   Most programs run up to [n_loops] loops; the runners have room for
   [max_loops]. *)
let n_loops = 3
let max_loops = 24
let idle_horizon = 20.0
let idle_work = 0.5

(* What a run shows: the log, then (now, pending, events) after each
   [run_until] limit and after the final [run]. *)
type observed = (int * float) list * (float * int * int) list

let run_engine (init, limits) : observed =
  let eng = Sim.Engine.create () in
  let slots = Array.make n_slots Sim.Engine.no_wakener in
  let log = ref [] in
  let flags = Array.make max_loops 0 and iters = Array.make max_loops 0 in
  let parks = Array.make max_loops Sim.Engine.no_wakener in
  let idle_loop k period =
    let nap =
      Sim.Engine.idle_suspension
        {
          Sim.Engine.quiet =
            (fun () -> flags.(k) = 0 && Sim.Engine.now eng < idle_horizon);
          settle = (fun () -> iters.(k) <- iters.(k) + 1);
          park =
            (fun w ->
              parks.(k) <- w;
              Sim.Engine.poll_after eng period w);
          period;
        }
    in
    let rec iterate () =
      iters.(k) <- iters.(k) + 1;
      if Sim.Engine.now eng >= idle_horizon then
        log := (200 + k, float_of_int iters.(k)) :: !log
      else if flags.(k) > 0 then begin
        flags.(k) <- flags.(k) - 1;
        log := (100 + k, Sim.Engine.now eng) :: !log;
        Sim.Engine.delay idle_work;
        iterate ()
      end
      else begin
        Sim.Engine.suspend_with nap;
        iterate ()
      end
    in
    iterate ()
  in
  let rec exec ~fiber acts =
    List.iter
      (function
        | Log i -> log := (i, Sim.Engine.now eng) :: !log
        | At (tm, b) -> Sim.Engine.at eng tm (fun () -> exec ~fiber:false b)
        | After (dt, b) ->
            Sim.Engine.after eng dt (fun () -> exec ~fiber:false b)
        | Spawn b -> Sim.Engine.spawn eng (fun () -> exec ~fiber:true b)
        | Delay dt -> if fiber then Sim.Engine.delay dt
        | Park i ->
            if fiber then Sim.Engine.suspend (fun w -> slots.(i) <- w)
        | Wake i -> Sim.Engine.wake eng slots.(i)
        | Wake_after (dt, i) -> Sim.Engine.wake_after eng dt slots.(i)
        | Poll_after (dt, i) -> Sim.Engine.poll_after eng dt slots.(i)
        | Flag k -> flags.(k) <- flags.(k) + 1
        | Poke k -> Sim.Engine.wake eng parks.(k)
        | Idle_loop (k, period) -> if fiber then idle_loop k period)
      acts
  in
  exec ~fiber:false init;
  let snap () =
    ( Sim.Engine.now eng,
      Sim.Engine.pending eng,
      Sim.Engine.events_processed eng )
  in
  let snaps =
    List.map
      (fun d ->
        Sim.Engine.run_until eng (Sim.Engine.now eng +. d);
        snap ())
      limits
  in
  Sim.Engine.run eng;
  (List.rev !log, snaps @ [ snap () ])

(* The reference: one Sim.Heap keyed by (clamped time, push count), a
   coroutine's remaining acts as its continuation. *)
type ref_wakener = { mutable fired : bool; mutable rest : act list option }

type ref_ev = Acts of bool * act list | Timer of ref_wakener

let run_reference (init, limits) : observed =
  let heap = Sim.Heap.create ~dummy:(Acts (false, [])) () in
  let now = ref 0.0 and seq = ref 0 and events = ref 0 in
  let slots = Array.init n_slots (fun _ -> { fired = true; rest = None }) in
  let log = ref [] in
  let flags = Array.make max_loops 0 and iters = Array.make max_loops 0 in
  let parks = Array.init max_loops (fun _ -> { fired = true; rest = None }) in
  let push time ev =
    let time = if time < !now then !now else time in
    incr seq;
    Sim.Heap.push heap time !seq ev
  in
  let wake w =
    if not w.fired then begin
      w.fired <- true;
      match w.rest with
      | Some rest ->
          w.rest <- None;
          push !now (Acts (true, rest))
      | None -> ()
    end
  in
  let rec exec ~fiber = function
    | [] -> ()
    | act :: rest -> (
        match act with
        | Delay dt when fiber -> push (!now +. dt) (Acts (true, rest))
        | Park i when fiber -> slots.(i) <- { fired = false; rest = Some rest }
        | Idle_loop (k, period) when fiber ->
            (* one iteration; the loop resumes on every poll *)
            iters.(k) <- iters.(k) + 1;
            if !now >= idle_horizon then begin
              log := (200 + k, float_of_int iters.(k)) :: !log;
              exec ~fiber rest
            end
            else if flags.(k) > 0 then begin
              flags.(k) <- flags.(k) - 1;
              log := (100 + k, !now) :: !log;
              push (!now +. idle_work) (Acts (true, act :: rest))
            end
            else begin
              parks.(k) <- { fired = false; rest = Some (act :: rest) };
              push (!now +. period) (Timer parks.(k))
            end
        | _ ->
            (match act with
            | Log i -> log := (i, !now) :: !log
            | At (tm, b) -> push tm (Acts (false, b))
            | After (dt, b) -> push (!now +. dt) (Acts (false, b))
            | Spawn b -> push !now (Acts (true, b))
            | Delay _ | Park _ | Idle_loop _ -> ()
            | Flag k -> flags.(k) <- flags.(k) + 1
            | Poke k -> wake parks.(k)
            | Wake i -> wake slots.(i)
            | Wake_after (dt, i) | Poll_after (dt, i) ->
                push (!now +. dt) (Timer slots.(i)));
            exec ~fiber rest)
  in
  let pop () =
    let time, _, ev = Sim.Heap.pop heap in
    now := time;
    incr events;
    match ev with Acts (fiber, acts) -> exec ~fiber acts | Timer w -> wake w
  in
  exec ~fiber:false init;
  let snap () = (!now, Sim.Heap.length heap, !events) in
  let snaps =
    List.map
      (fun d ->
        let limit = !now +. d in
        while
          (not (Sim.Heap.is_empty heap)) && Sim.Heap.min_time heap <= limit
        do
          pop ()
        done;
        if not (Sim.Heap.is_empty heap) then now := limit;
        snap ())
      limits
  in
  while not (Sim.Heap.is_empty heap) do
    pop ()
  done;
  (List.rev !log, snaps @ [ snap () ])

let gen_program_with ?(extra = []) dt =
  let open QCheck.Gen in
  (* absolute times, which fall into the past as the clock moves *)
  let abs_time = oneofl [ 0.0; 1.0; 3.0; 5.0; 8.0 ] in
  let slot = int_bound (n_slots - 1) in
  let act =
    sized
    @@ fix (fun self n ->
           let leaves =
             [
               (3, map (fun i -> Log i) small_nat);
               (2, map (fun d -> Delay d) dt);
               (2, map (fun i -> Park i) slot);
               (2, map (fun i -> Wake i) slot);
               (2, map2 (fun d i -> Wake_after (d, i)) dt slot);
             ]
           in
           let leaf = frequency (leaves @ extra) in
           if n <= 0 then leaf
           else
             let body = list_size (int_bound 4) (self (n / 3)) in
             frequency
               [
                 (4, leaf);
                 (2, map2 (fun t b -> At (t, b)) abs_time body);
                 (3, map2 (fun d b -> After (d, b)) dt body);
                 (2, map (fun b -> Spawn b) body);
               ])
  in
  pair
    (list_size (int_range 1 6) act)
    (list_size (int_bound 3) (oneofl [ 0.0; 0.5; 2.0; 7.0 ]))

(* mostly 0: same-instant pushes and nested same-instant bursts *)
let gen_program =
  QCheck.Gen.(
    gen_program_with
      (frequency [ (4, return 0.0); (1, oneofl [ 1.0; 2.5; 5.0 ]) ]))

let print_program (init, limits) =
  Printf.sprintf "init %s, run_until deltas [%s]" (pp_acts init)
    (String.concat "; " (List.map string_of_float limits))

let queue_order_matches_reference =
  QCheck.Test.make ~name:"engine pop order = Sim.Heap reference" ~count:500
    (QCheck.make gen_program ~print:(fun (init, limits) ->
         Printf.sprintf "init %s, run_until deltas [%s]" (pp_acts init)
           (String.concat "; " (List.map string_of_float limits))))
    (fun prog -> run_engine prog = run_reference prog)

(* The same, with poll timers: most are armed one period of 2.5 ahead, as
   idle loops arm them, so they queue in the poll lane, tie with heap
   entries pushed for the same instant and straddle [run_until] limits.
   The rest are armed 0, 1 or 5 ahead; those due now or before the
   lane's tail go to the heap. *)
let poll_order_matches_reference =
  let open QCheck.Gen in
  let dt = frequency [ (3, return 0.0); (1, oneofl [ 1.0; 2.5; 5.0 ]) ] in
  let poll_dt = frequency [ (4, return 2.5); (1, oneofl [ 0.0; 1.0; 5.0 ]) ] in
  let slot = int_bound (n_slots - 1) in
  let extra = [ (4, map2 (fun d i -> Poll_after (d, i)) poll_dt slot) ] in
  QCheck.Test.make ~name:"engine with a poll lane = Sim.Heap reference"
    ~count:500
    (QCheck.make ~print:print_program (gen_program_with ~extra dt))
    (fun prog -> run_engine prog = run_reference prog)

(* The same, with idle loops parked through [Engine.idle_suspension],
   whose [quiet] reads the program's state: the work queued for them and
   the clock.  [loops] draws [(start, period)] per loop, at most
   [max_loops].  Work arrives from thunks, often at a poll's instant, and
   pokes wake a loop between polls.  The reference resumes every loop on
   every poll, so the engine's quiet-poll shortcuts must give the same
   log, clocks, counts and pending events. *)
let idle_loops_match_reference ~name ~count ~n loops =
  let open QCheck.Gen in
  let dt = frequency [ (3, return 0.0); (1, oneofl [ 1.0; 2.5; 5.0 ]) ] in
  let loop = int_bound (n - 1) in
  let extra =
    [
      (3, map (fun k -> Flag k) loop);
      (2, map (fun k -> Poke k) loop);
      ( 2,
        map2
          (fun tm k -> At (tm, [ Flag k ]))
          (oneofl [ 5.0; 7.5; 10.0; 12.5; 16.0 ])
          loop );
    ]
  in
  let program =
    map2
      (fun loops (init, limits) ->
        ( List.mapi
            (fun k (start, period) ->
              At (start, [ Spawn [ Idle_loop (k, period) ] ]))
            loops
          @ init,
          limits ))
      loops
      (gen_program_with ~extra dt)
  in
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:print_program program)
    (fun prog -> run_engine prog = run_reference prog)

(* Up to [n_loops] loops. *)
let idle_order_matches_reference =
  idle_loops_match_reference
    ~name:"engine with quiet idle loops = Sim.Heap reference" ~count:500
    ~n:n_loops
    QCheck.Gen.(
      list_size (int_range 1 n_loops)
        (pair (oneofl [ 0.0; 0.0; 1.0; 2.5 ]) (oneofl [ 2.5; 2.5; 1.0; 5.0 ])))

(* 17 to [max_loops] loops, more than the poll ring's initial 16 entries,
   so the ring grows while quiet polls rotate through it.  The loops start
   staggered within one period, so most are parked when the later ones
   first arm their timers. *)
let many_idle_loops_match_reference =
  idle_loops_match_reference
    ~name:"engine with more than 16 idle loops = Sim.Heap reference"
    ~count:200 ~n:max_loops
    QCheck.Gen.(
      list_size (int_range 17 max_loops)
        (pair (oneofl [ 0.0; 0.5; 1.0; 2.0 ]) (oneofl [ 2.5; 2.5; 2.5; 1.0 ])))

(* A thunk that re-schedules itself for the same instant never lets the
   clock move: the event budget trips, and the histogram names it. *)
let test_same_instant_runaway () =
  let eng = Sim.Engine.create ~max_events:50 () in
  Sim.Engine.at ~label:"later" eng 100.0 ignore;
  let rec spin () = Sim.Engine.after ~label:"same-instant" eng 0.0 spin in
  Sim.Engine.at eng 5.0 spin;
  match Sim.Engine.run eng with
  | () -> Alcotest.fail "expected Runaway"
  | exception Sim.Engine.Runaway r ->
      Alcotest.(check int) "events executed" 51 r.Sim.Engine.runaway_events;
      check_float "clock held at the instant" ~eps:0.0 5.0
        r.Sim.Engine.runaway_at;
      Alcotest.(check (list (pair string int)))
        "histogram counts both queues"
        [ ("later", 1); ("same-instant", 1) ]
        r.Sim.Engine.runaway_pending

(* The clock never moves backwards: a limit below [now] is refused. *)
let test_run_until_backwards () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng 150.0 ignore;
  Sim.Engine.run_until eng 100.0;
  Alcotest.check_raises "limit before now"
    (Invalid_argument "Engine.run_until: limit is before the current time")
    (fun () -> Sim.Engine.run_until eng 50.0);
  check_float "clock unchanged" ~eps:0.0 100.0 (Sim.Engine.now eng);
  Sim.Engine.run_until eng 100.0;
  Alcotest.(check int) "later event still queued" 1 (Sim.Engine.pending eng)

(* A tie at T between an event pushed for T before the clock reached T
   (H) and one pushed at T once the clock was there (Z): the explorer is
   offered both, in seq order.  It is attached mid-instant, the way a
   machine boots before its explorer attaches. *)
let test_explorer_tie_across_queues () =
  let run choice =
    let eng = Sim.Engine.create () in
    let ex = Sim.Explore.create ~prefix:[| choice |] () in
    let order = ref [] in
    let log tag = order := tag :: !order in
    Sim.Engine.at eng 10.0 (fun () ->
        log "W";
        Sim.Engine.set_explore eng (Some ex);
        Sim.Engine.after eng 0.0 (fun () -> log "Z"));
    Sim.Engine.at eng 10.0 (fun () -> log "H");
    Sim.Engine.run eng;
    let offered =
      List.map
        (fun (d : Sim.Explore.decision) ->
          (Sim.Explore.kind_name d.d_kind, d.d_alts, d.d_chosen))
        (Sim.Explore.decisions ex)
    in
    (List.rev !order, offered)
  in
  let check_run choice expected =
    let order, offered = run choice in
    Alcotest.(check (list string))
      (Printf.sprintf "order, choice %d" choice)
      expected order;
    Alcotest.(check (list (triple string int int)))
      (Printf.sprintf "one two-way tie, choice %d" choice)
      [ ("tie", 2, choice) ]
      offered
  in
  check_run 0 [ "W"; "H"; "Z" ];
  check_run 1 [ "W"; "Z"; "H" ]

(* A tie at T = 10 across both queues and the instant's own pushes: H
   (pushed at 0), H2 (pushed at 8) and Z (pushed at 10) in the heap, the
   poll timer P (armed at 6 by a coroutine, one period of 4 ahead) in the
   poll lane.  The explorer is offered them in seq order, H, P, H2, Z, so
   FIFO is alternative 0, and the losers go back into the heap with their
   own seqs, so they pop in seq order.
   P's coroutine logs on the wake its timer pushes, which queues behind
   the losers, so "P" always comes last. *)
let test_explorer_tie_three_queues () =
  let run choice =
    let eng = Sim.Engine.create () in
    let ex = Sim.Explore.create ~prefix:[| choice |] () in
    let order = ref [] in
    let log tag = order := tag :: !order in
    Sim.Engine.at eng 10.0 (fun () ->
        log "W";
        Sim.Engine.set_explore eng (Some ex);
        Sim.Engine.after eng 0.0 (fun () -> log "Z"));
    Sim.Engine.at eng 10.0 (fun () -> log "H");
    Sim.Engine.at eng 6.0 (fun () ->
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.suspend (fun w -> Sim.Engine.poll_after eng 4.0 w);
            log "P"));
    Sim.Engine.at eng 8.0 (fun () ->
        Sim.Engine.at eng 10.0 (fun () -> log "H2"));
    Sim.Engine.run eng;
    let offered =
      List.map
        (fun (d : Sim.Explore.decision) -> (d.d_alts, d.d_chosen))
        (Sim.Explore.decisions ex)
    in
    (List.rev !order, offered)
  in
  (* choice -> log, then (alternatives, chosen) of every tie offered *)
  let expected =
    [
      (0, [ "W"; "H"; "H2"; "Z"; "P" ], [ (4, 0); (3, 0); (3, 0); (2, 0) ]);
      (1, [ "W"; "H"; "H2"; "Z"; "P" ], [ (4, 1); (4, 0); (3, 0); (2, 0) ]);
      (2, [ "W"; "H2"; "H"; "Z"; "P" ], [ (4, 2); (3, 0); (2, 0); (2, 0) ]);
      (3, [ "W"; "Z"; "H"; "H2"; "P" ], [ (4, 3); (3, 0); (2, 0); (2, 0) ]);
    ]
  in
  List.iter
    (fun (choice, order', offered') ->
      let order, offered = run choice in
      Alcotest.(check (list string))
        (Printf.sprintf "order, choice %d" choice)
        order' order;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "ties offered, choice %d" choice)
        offered' offered)
    expected

(* A timer whose wake would be the next event anyway runs that wake in
   its own dispatch.  Each case below is one reason the wake would not
   be next, so it must still queue behind the event due first.  The
   orders and counts were captured with every wake queued as its own
   event. *)

let timers_fired eng = List.assoc "after" (Sim.Engine.label_counts eng)

(* A thunk pushed for T after the timer for T runs before the coroutine
   the timer wakes. *)
let test_fusion_heap_tie () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let log tag = order := tag :: !order in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
      log "resumed");
  Sim.Engine.at eng 1.0 (fun () ->
      Sim.Engine.at eng 5.0 (fun () -> log "thunk"));
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "heap tie first" [ "thunk"; "resumed" ] (List.rev !order)

(* A poll timer for T armed after the heap timer for T fires before the
   heap timer's coroutine resumes. *)
let test_fusion_poll_tie () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let log tag = order := tag :: !order in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
      log (Printf.sprintf "A after %d timers" (timers_fired eng)));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.poll_after eng 5.0 w);
      log "B");
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "poll tie first" [ "A after 2 timers"; "B" ] (List.rev !order)

(* An event already queued for the instant when the timer fires runs
   before the coroutine the timer wakes. *)
let test_fusion_lane_busy () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let log tag = order := tag :: !order in
  Sim.Engine.at eng 5.0 (fun () ->
      Sim.Engine.at eng 5.0 (fun () -> log "lane"));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
      log "resumed");
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "lane entry first" [ "lane"; "resumed" ] (List.rev !order)

(* Under an explorer a wake tied with another event is not fused: when
   the timer wins a tie with X, the explorer is offered X and the wake. *)
let test_fusion_explorer_tie () =
  let run prefix =
    let eng = Sim.Engine.create () in
    let ex = Sim.Explore.create ~prefix () in
    Sim.Engine.set_explore eng (Some ex);
    let order = ref [] in
    let log tag = order := tag :: !order in
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
        log "A");
    Sim.Engine.at eng 1.0 (fun () -> Sim.Engine.at eng 5.0 (fun () -> log "X"));
    Sim.Engine.run eng;
    let offered =
      List.map
        (fun (d : Sim.Explore.decision) ->
          (Sim.Explore.kind_name d.d_kind, d.d_alts, d.d_chosen))
        (Sim.Explore.decisions ex)
    in
    (List.rev !order, offered)
  in
  List.iter
    (fun (prefix, order', offered') ->
      let order, offered = run prefix in
      let name =
        String.concat "," (List.map string_of_int (Array.to_list prefix))
      in
      Alcotest.(check (list string)) ("order, prefix " ^ name) order' order;
      Alcotest.(check (list (triple string int int)))
        ("ties offered, prefix " ^ name)
        offered' offered)
    [
      ([| 0; 0 |], [ "X"; "A" ], [ ("tie", 2, 0); ("tie", 2, 0) ]);
      ([| 0; 1 |], [ "A"; "X" ], [ ("tie", 2, 0); ("tie", 2, 1) ]);
      ([| 1 |], [ "X"; "A" ], [ ("tie", 2, 1) ]);
    ]

(* Under an explorer a wake that nothing ties with runs as without one:
   no choice is offered, and the counts are the same. *)
let test_fusion_explorer_alone () =
  let eng = Sim.Engine.create () in
  let ex = Sim.Explore.create ~prefix:[||] () in
  Sim.Engine.set_explore eng (Some ex);
  let resumed = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
      resumed := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "resumed at the timer" ~eps:0.0 5.0 !resumed;
  Alcotest.(check int) "no decision" 0 (List.length (Sim.Explore.decisions ex));
  Alcotest.(check (list (pair string int)))
    "events by label"
    [ ("after", 1); ("at", 0); ("delay", 0); ("spawn", 1); ("wake", 1) ]
    (List.sort compare (Sim.Engine.label_counts eng))

(* [run_until] at the timer's instant runs the wake too: it is due at the
   limit. *)
let test_fusion_run_until () =
  let eng = Sim.Engine.create () in
  let resumed = ref (-1.0) in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 5.0 w);
      resumed := Sim.Engine.now eng);
  Sim.Engine.at eng 9.0 ignore;
  Sim.Engine.run_until eng 5.0;
  check_float "resumed at the limit" ~eps:0.0 5.0 !resumed;
  check_float "clock at the limit" ~eps:0.0 5.0 (Sim.Engine.now eng);
  Alcotest.(check int) "events" 3 (Sim.Engine.events_processed eng);
  Alcotest.(check int) "later event queued" 1 (Sim.Engine.pending eng);
  Alcotest.(check (list (pair string int)))
    "events by label"
    [ ("after", 1); ("at", 0); ("delay", 0); ("spawn", 1); ("wake", 1) ]
    (List.sort compare (Sim.Engine.label_counts eng))

(* A budget that trips on the wake of a timer: the wake counts as
   executed and, not yet run, as pending. *)
let test_fusion_runaway () =
  let eng = Sim.Engine.create ~max_events:6 () in
  Sim.Engine.at ~label:"later" eng 100.0 ignore;
  Sim.Engine.spawn eng (fun () ->
      while true do
        Sim.Engine.suspend (fun w -> Sim.Engine.wake_after eng 1.0 w)
      done);
  match Sim.Engine.run eng with
  | () -> Alcotest.fail "expected Runaway"
  | exception Sim.Engine.Runaway r ->
      Alcotest.(check int) "events executed" 7 r.Sim.Engine.runaway_events;
      check_float "tripped at the timer's instant" ~eps:0.0 3.0
        r.Sim.Engine.runaway_at;
      Alcotest.(check (list (pair string int)))
        "the wake is pending"
        [ ("later", 1); ("wake", 1) ]
        r.Sim.Engine.runaway_pending

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 7L and b = Sim.Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next_int64 a)
      (Sim.Prng.next_int64 b)
  done

let prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.int64
    (fun seed ->
      let p = Sim.Prng.create seed in
      let x = Sim.Prng.float p in
      x >= 0.0 && x < 1.0)

let prng_int_range =
  QCheck.Test.make ~name:"prng int in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Sim.Prng.create seed in
      let x = Sim.Prng.int p bound in
      x >= 0 && x < bound)

(* Reference SplitMix64 in boxed Int64 arithmetic (Steele, Lea & Flood),
   pinning the production unboxed implementation to the published
   sequence bit for bit. *)
let reference_splitmix64 state =
  let ( ^>> ) z n = Int64.logxor z (Int64.shift_right_logical z n) in
  let s = Int64.add !state 0x9E3779B97F4A7C15L in
  state := s;
  let z = Int64.mul (s ^>> 30) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (z ^>> 27) 0x94D049BB133111EBL in
  z ^>> 31

let prng_matches_reference =
  QCheck.Test.make ~name:"prng = reference Int64 SplitMix64" ~count:200
    QCheck.int64
    (fun seed ->
      let p = Sim.Prng.create seed in
      let state = ref seed in
      let ok = ref true in
      for _ = 1 to 64 do
        if Sim.Prng.next_int64 p <> reference_splitmix64 state then ok := false
      done;
      !ok)

(* [float], [int] and [bool] are the reference draw's top 53 bits scaled
   to [0, 1), its low 62 bits modulo the bound, and its low bit, bit for
   bit, in any interleaving of the three. *)
let prng_derived_match_reference =
  QCheck.Test.make ~name:"prng float/int/bool = reference draws" ~count:200
    QCheck.(pair int64 (list_of_size Gen.(return 64) (int_range 0 2000)))
    (fun (seed, picks) ->
      let p = Sim.Prng.create seed in
      let state = ref seed in
      List.for_all
        (fun pick ->
          let z = reference_splitmix64 state in
          match pick mod 3 with
          | 0 ->
              let expected =
                Int64.to_float (Int64.shift_right_logical z 11)
                /. 9007199254740992.0
              in
              Int64.bits_of_float (Sim.Prng.float p)
              = Int64.bits_of_float expected
          | 1 ->
              let bound = (pick / 3) + 1 in
              Sim.Prng.int p bound
              = Int64.to_int
                  (Int64.rem (Int64.logand z 0x3FFF_FFFF_FFFF_FFFFL)
                     (Int64.of_int bound))
          | _ -> Sim.Prng.bool p = (Int64.logand z 1L = 1L))
        picks)

(* A draw consumed as an int allocates nothing: the 64-bit state and the
   draw stay unboxed. *)
let test_prng_allocates_nothing () =
  let p = Sim.Prng.create 42L in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Sim.Prng.int p 1000 + Bool.to_int (Sim.Prng.bool p)
  done;
  let words = Gc.minor_words () -. before in
  check_float "minor words" ~eps:0.0 0.0 words;
  Alcotest.(check bool) "draws happened" true (!acc > 0)

(* ------------------------------------------------------------------ *)
(* Bus: FCFS, no overlapping service *)

let test_bus_fcfs () =
  let eng = Sim.Engine.create () in
  let params = { Sim.Params.default with bus_service = 2.0; cost_jitter = 0.0 } in
  let bus = Sim.Bus.create eng params in
  let finish = Array.make 3 0.0 in
  for i = 0 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Bus.access bus ();
        finish.(i) <- Sim.Engine.now eng)
  done;
  Sim.Engine.run eng;
  (* three transactions serialize: 2, 4, 6 *)
  check_float "1st" ~eps:1e-9 2.0 finish.(0);
  check_float "2nd" ~eps:1e-9 4.0 finish.(1);
  check_float "3rd" ~eps:1e-9 6.0 finish.(2);
  Alcotest.(check int) "count" 3 (Sim.Bus.transactions bus)

let test_bus_idle_no_queue () =
  let eng = Sim.Engine.create () in
  let params = { Sim.Params.default with bus_service = 2.0 } in
  let bus = Sim.Bus.create eng params in
  let t1 = ref 0.0 in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 100.0;
      Sim.Bus.access bus ();
      t1 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "no residual queueing" ~eps:1e-9 102.0 !t1

(* ------------------------------------------------------------------ *)
(* Interrupt controller edge cases (pure bookkeeping, no engine) *)

let shoot_pending p =
  { Sim.Interrupt.kind = Sim.Interrupt.Shootdown; level = p; posted_at = 0.0 }

let dev_pending p = { Sim.Interrupt.kind = Sim.Interrupt.Device; level = p; posted_at = 0.0 }

let test_deliverable_strictly_above_ipl () =
  (* an interrupt at exactly the current IPL is masked: delivery needs
     [level > ipl], not [>=] *)
  let c = Sim.Interrupt.make_controller () in
  Sim.Interrupt.post c (shoot_pending Sim.Interrupt.ipl_soft);
  (match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_soft with
  | None -> ()
  | Some _ -> Alcotest.fail "delivered at its own level");
  (match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_none with
  | Some p ->
      Alcotest.(check bool)
        "same pending comes back" true
        (p.Sim.Interrupt.kind = Sim.Interrupt.Shootdown)
  | None -> Alcotest.fail "masked below its level")

let test_post_coalesces_per_kind () =
  (* at most one pending entry per kind, like a real interrupt line:
     re-posting while pending is absorbed *)
  let c = Sim.Interrupt.make_controller () in
  for _ = 1 to 3 do
    Sim.Interrupt.post c (shoot_pending Sim.Interrupt.ipl_soft)
  done;
  match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_none with
  | None -> Alcotest.fail "nothing pending after post"
  | Some p -> (
      Sim.Interrupt.take c p;
      Alcotest.(check bool)
        "pending cleared" false
        (Sim.Interrupt.has_pending c Sim.Interrupt.Shootdown);
      match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_none with
      | None -> ()
      | Some _ -> Alcotest.fail "triple post left extra pending entries")

let test_take_clears_only_taken_kind () =
  let c = Sim.Interrupt.make_controller () in
  Sim.Interrupt.post c (shoot_pending Sim.Interrupt.ipl_soft);
  Sim.Interrupt.post c (dev_pending Sim.Interrupt.ipl_device);
  (* the device interrupt wins on priority *)
  (match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_none with
  | Some p when p.Sim.Interrupt.kind = Sim.Interrupt.Device ->
      Sim.Interrupt.take c p
  | Some _ -> Alcotest.fail "lower-priority shootdown delivered first"
  | None -> Alcotest.fail "nothing deliverable");
  Alcotest.(check bool)
    "device cleared" false
    (Sim.Interrupt.has_pending c Sim.Interrupt.Device);
  Alcotest.(check bool)
    "shootdown survives the take" true
    (Sim.Interrupt.has_pending c Sim.Interrupt.Shootdown);
  match Sim.Interrupt.deliverable c ~ipl:Sim.Interrupt.ipl_none with
  | Some p when p.Sim.Interrupt.kind = Sim.Interrupt.Shootdown -> ()
  | Some _ | None -> Alcotest.fail "shootdown not deliverable after take"

(* ------------------------------------------------------------------ *)
(* CPU + interrupts *)

let quiet_params =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

let make_cpu ?(params = quiet_params) () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpu = Sim.Cpu.create eng bus params ~id:0 in
  (eng, cpu)

let test_interrupt_cuts_sleep () =
  let eng, cpu = make_cpu () in
  let handled_at = ref (-1.0) in
  cpu.Sim.Cpu.shootdown_handler <- (fun c -> handled_at := Sim.Cpu.now c);
  Sim.Engine.spawn eng (fun () -> Sim.Cpu.step cpu 1000.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 100.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  (* dispatched at 100 + dispatch cost + bus writes, well before 1000 *)
  if !handled_at < 100.0 || !handled_at > 300.0 then
    Alcotest.failf "handler at %.1f, expected shortly after 100" !handled_at

let test_interrupt_masked_until_ipl_drop () =
  let eng, cpu = make_cpu () in
  let handled_at = ref (-1.0) in
  cpu.Sim.Cpu.shootdown_handler <- (fun c -> handled_at := Sim.Cpu.now c);
  Sim.Engine.spawn eng (fun () ->
      let saved = Sim.Cpu.set_ipl cpu Sim.Interrupt.ipl_high in
      Sim.Cpu.raw_delay cpu 500.0;
      Sim.Cpu.restore_ipl cpu saved;
      Sim.Cpu.step cpu 10.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 50.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  if !handled_at < 500.0 then
    Alcotest.failf "handler ran at %.1f despite masking" !handled_at

let test_interrupt_step_resumes () =
  (* A step interrupted by a handler still accounts its full cost. *)
  let eng, cpu = make_cpu () in
  cpu.Sim.Cpu.shootdown_handler <- (fun c -> Sim.Cpu.raw_delay c 200.0);
  let done_at = ref 0.0 in
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.step cpu 1000.0;
      done_at := Sim.Cpu.now cpu);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 100.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  if !done_at < 1200.0 then
    Alcotest.failf "step finished at %.1f; handler time not added" !done_at

let test_device_priority_over_shootdown () =
  (* With default wiring, a device interrupt masks the shootdown IPI. *)
  let params = { quiet_params with device_intr_service = 300.0 } in
  let eng, cpu = make_cpu ~params () in
  let order = ref [] in
  cpu.Sim.Cpu.shootdown_handler <- (fun _ -> order := "shoot" :: !order);
  cpu.Sim.Cpu.device_handler <-
    (fun c ->
      order := "device" :: !order;
      Sim.Cpu.raw_delay c 300.0;
      (* posted mid-service, must not preempt the device handler *)
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.post cpu Sim.Interrupt.Device;
      Sim.Cpu.step cpu 1000.0);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "device first" [ "device"; "shoot" ]
    (List.rev !order)

let test_nested_interrupt_preemption () =
  (* a higher-priority interrupt preempts a running lower-priority
     handler; the lower one resumes and completes *)
  let params = { quiet_params with high_priority_shootdown = true } in
  let eng, cpu = make_cpu ~params () in
  let order = ref [] in
  cpu.Sim.Cpu.device_handler <-
    (fun c ->
      order := "dev-start" :: !order;
      Sim.Cpu.masked_service c 200.0;
      order := "dev-end" :: !order);
  cpu.Sim.Cpu.shootdown_handler <- (fun _ -> order := "shoot" :: !order);
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.post cpu Sim.Interrupt.Device;
      Sim.Cpu.step cpu 600.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 60.0;
      (* lands mid device service; high-priority, so it nests *)
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "nested ordering"
    [ "dev-start"; "shoot"; "dev-end" ]
    (List.rev !order)

let test_masked_service_blocks_equal_priority () =
  (* without the high-priority option, a shootdown cannot preempt a
     device handler: it runs only after the service completes *)
  let eng, cpu = make_cpu () in
  let order = ref [] in
  cpu.Sim.Cpu.device_handler <-
    (fun c ->
      order := "dev-start" :: !order;
      Sim.Cpu.masked_service c 200.0;
      order := "dev-end" :: !order);
  cpu.Sim.Cpu.shootdown_handler <- (fun _ -> order := "shoot" :: !order);
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.post cpu Sim.Interrupt.Device;
      Sim.Cpu.step cpu 600.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 60.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "deferred ordering"
    [ "dev-start"; "dev-end"; "shoot" ]
    (List.rev !order)

let test_kernel_step_spl_sections_delay_shootdown () =
  (* kernel computation with interrupt-masked sections delays shootdown
     delivery — the cause of the paper's kernel-shootdown skew *)
  let params =
    { quiet_params with spl_section_rate = 50.0; spl_section_mean = 400.0 }
  in
  let eng, cpu = make_cpu ~params () in
  let handled = ref 0 in
  cpu.Sim.Cpu.shootdown_handler <- (fun _ -> incr handled);
  Sim.Engine.spawn eng (fun () -> Sim.Cpu.kernel_step cpu 3_000.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 100.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  Alcotest.(check int) "handled eventually" 1 !handled

let test_high_priority_shootdown_preempts_device_mask () =
  let params = { quiet_params with high_priority_shootdown = true } in
  let eng, cpu = make_cpu ~params () in
  let handled_at = ref (-1.0) in
  cpu.Sim.Cpu.shootdown_handler <- (fun c -> handled_at := Sim.Cpu.now c);
  Sim.Engine.spawn eng (fun () ->
      let saved = Sim.Cpu.set_ipl cpu Sim.Interrupt.ipl_device in
      Sim.Cpu.raw_delay cpu 100.0;
      Sim.Cpu.step cpu 500.0;
      (* step at device IPL: shootdown should still get through *)
      Sim.Cpu.restore_ipl cpu saved);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 150.0;
      Sim.Cpu.post cpu Sim.Interrupt.Shootdown);
  Sim.Engine.run eng;
  if !handled_at < 0.0 || !handled_at > 400.0 then
    Alcotest.failf "high-priority shootdown at %.1f, wanted ~150-250"
      !handled_at

(* ------------------------------------------------------------------ *)
(* Spinlock *)

let test_spinlock_mutual_exclusion () =
  let eng = Sim.Engine.create () in
  let params = quiet_params in
  let bus = Sim.Bus.create eng params in
  let cpus = Array.init 4 (fun id -> Sim.Cpu.create eng bus params ~id) in
  let lock = Sim.Spinlock.create "test" in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  Array.iter
    (fun cpu ->
      Sim.Engine.spawn eng (fun () ->
          for _ = 1 to 5 do
            Sim.Spinlock.with_lock lock cpu (fun () ->
                incr inside;
                if !inside > !max_inside then max_inside := !inside;
                incr total;
                Sim.Cpu.raw_delay cpu 20.0;
                decr inside)
          done))
    cpus;
  Sim.Engine.run eng;
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "all critical sections ran" 20 !total

let test_spinlock_raises_ipl () =
  let eng, cpu = make_cpu () in
  let lock = Sim.Spinlock.create ~level:Sim.Interrupt.ipl_vm "vm" in
  let ipl_inside = ref (-1) in
  Sim.Engine.spawn eng (fun () ->
      let saved = Sim.Spinlock.acquire lock cpu in
      ipl_inside := Sim.Cpu.ipl cpu;
      Sim.Spinlock.release lock cpu ~saved_ipl:saved;
      Alcotest.(check int) "ipl restored" Sim.Interrupt.ipl_none
        (Sim.Cpu.ipl cpu));
  Sim.Engine.run eng;
  Alcotest.(check int) "ipl raised while held" Sim.Interrupt.ipl_vm !ipl_inside

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let make_sched ?(ncpus = 4) ?(params = quiet_params) () =
  let params = { params with ncpus } in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpus = Array.init ncpus (fun id -> Sim.Cpu.create eng bus params ~id) in
  let sched = Sim.Sched.create eng cpus params in
  Sim.Sched.start sched;
  (eng, sched)

let run_to_completion eng sched =
  let guard = ref 0 in
  while Sim.Sched.live_threads sched > 0 && Sim.Engine.step eng do
    incr guard;
    if !guard > 10_000_000 then Alcotest.fail "scheduler wedged"
  done;
  Sim.Sched.stop sched;
  Sim.Engine.run eng

let test_threads_run_in_parallel () =
  let eng, sched = make_sched ~ncpus:4 () in
  let ends = ref [] in
  for _ = 1 to 4 do
    ignore
      (Sim.Sched.create_thread sched (fun th ->
           let cpu = Sim.Sched.current_cpu th in
           Sim.Cpu.step cpu 1000.0;
           ends := Sim.Engine.now eng :: !ends))
  done;
  run_to_completion eng sched;
  Alcotest.(check int) "all finished" 4 (List.length !ends);
  (* On 4 CPUs the four 1000us threads overlap: all end well before 4000. *)
  List.iter
    (fun t ->
      if t > 2000.0 then Alcotest.failf "thread ended at %.0f: no overlap" t)
    !ends

let test_more_threads_than_cpus () =
  let eng, sched = make_sched ~ncpus:2 () in
  let finished = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Sim.Sched.create_thread sched (fun th ->
           let cpu = Sim.Sched.current_cpu th in
           Sim.Cpu.step cpu 100.0;
           incr finished))
  done;
  run_to_completion eng sched;
  Alcotest.(check int) "all 6 finished on 2 cpus" 6 !finished

let test_bound_threads () =
  let eng, sched = make_sched ~ncpus:4 () in
  let where = Array.make 4 (-1) in
  for i = 0 to 3 do
    ignore
      (Sim.Sched.create_thread sched ~bound:i (fun th ->
           let cpu = Sim.Sched.current_cpu th in
           Sim.Cpu.step cpu 50.0;
           where.(i) <- Sim.Cpu.id cpu))
  done;
  run_to_completion eng sched;
  Alcotest.(check (array int)) "each on its cpu" [| 0; 1; 2; 3 |] where

let test_join () =
  let eng, sched = make_sched () in
  let order = ref [] in
  let worker =
    Sim.Sched.create_thread sched ~name:"worker" (fun th ->
        Sim.Cpu.step (Sim.Sched.current_cpu th) 500.0;
        order := "worker" :: !order)
  in
  ignore
    (Sim.Sched.create_thread sched ~name:"main" (fun th ->
         Sim.Sched.join sched th worker;
         order := "joiner" :: !order));
  run_to_completion eng sched;
  Alcotest.(check (list string)) "join ordering" [ "worker"; "joiner" ]
    (List.rev !order)

let test_sleep () =
  let eng, sched = make_sched () in
  let woke = ref 0.0 in
  ignore
    (Sim.Sched.create_thread sched (fun th ->
         Sim.Sched.sleep sched th 1234.0;
         woke := Sim.Engine.now eng));
  run_to_completion eng sched;
  if !woke < 1234.0 then Alcotest.failf "woke too early: %.1f" !woke;
  if !woke > 1600.0 then Alcotest.failf "woke too late: %.1f" !woke

let test_mutex_condvar_producer_consumer () =
  let eng, sched = make_sched ~ncpus:2 () in
  let m = Sim.Sync.create_mutex "m" in
  let cv = Sim.Sync.create_condvar "cv" in
  let queue = Queue.create () in
  let consumed = ref [] in
  ignore
    (Sim.Sched.create_thread sched ~name:"consumer" (fun th ->
         let rec consume n =
           if n > 0 then begin
             Sim.Sync.lock sched th m;
             while Queue.is_empty queue do
               Sim.Sync.wait sched th cv m
             done;
             let v = Queue.pop queue in
             Sim.Sync.unlock sched th m;
             consumed := v :: !consumed;
             consume (n - 1)
           end
         in
         consume 5));
  ignore
    (Sim.Sched.create_thread sched ~name:"producer" (fun th ->
         for i = 1 to 5 do
           Sim.Cpu.step (Sim.Sched.current_cpu th) 30.0;
           Sim.Sync.lock sched th m;
           Queue.push i queue;
           Sim.Sync.signal sched cv;
           Sim.Sync.unlock sched th m
         done));
  run_to_completion eng sched;
  Alcotest.(check (list int)) "all values consumed in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !consumed)

let test_yield_shares_cpu () =
  let eng, sched = make_sched ~ncpus:1 () in
  let trace = ref [] in
  for i = 1 to 2 do
    ignore
      (Sim.Sched.create_thread sched (fun th ->
           for step = 1 to 3 do
             Sim.Cpu.step (Sim.Sched.current_cpu th) 10.0;
             trace := (i, step) :: !trace;
             Sim.Sched.yield sched th
           done))
  done;
  run_to_completion eng sched;
  let t = List.rev !trace in
  Alcotest.(check int) "six steps" 6 (List.length t);
  Alcotest.(check (list (pair int int)))
    "alternation"
    [ (1, 1); (2, 1); (1, 2); (2, 2); (1, 3); (2, 3) ]
    t

(* ------------------------------------------------------------------ *)
(* Quiet poll loop *)

(* [step] and [run_until] re-arm a run of quiet idle polls in place,
   without queuing their wakes.  Each case below is one condition that
   must stop or bound that loop.  The instants, counts and decisions
   were captured with every poll dispatched as its own event. *)

(* Idle CPUs under a bare scheduler, booted at 0, so their polls tie at
   25, 50, ...  [needed.(i)] stands for an action queued for CPU [i]: the
   CPU's idle loop is not quiet until its [pre_dispatch] drains it, which
   takes 5 us.  [settles] counts [pre_dispatch] calls and [drains] logs
   each drain as (CPU, instant). *)
type idle_rig = {
  eng : Sim.Engine.t;
  sched : Sim.Sched.t;
  cpus : Sim.Cpu.t array;
  needed : bool array;
  settles : int ref;
  drains : (int * float) list ref;
}

let idle_rig ncpus =
  let params = { quiet_params with ncpus } in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  let cpus = Array.init ncpus (fun id -> Sim.Cpu.create eng bus params ~id) in
  let sched = Sim.Sched.create eng cpus params in
  let needed = Array.make ncpus false in
  let settles = ref 0 and drains = ref [] in
  sched.actions_queued <- (fun cpu -> needed.(Sim.Cpu.id cpu));
  sched.pre_dispatch <-
    (fun cpu ->
      incr settles;
      let id = Sim.Cpu.id cpu in
      if needed.(id) then begin
        needed.(id) <- false;
        drains := (id, Sim.Engine.now eng) :: !drains;
        Sim.Engine.delay 5.0
      end);
  Sim.Sched.start sched;
  { eng; sched; cpus; needed; settles; drains }

(* What the stream shows at a point: the clock, the events by label, the
   settles and the pending events. *)
let check_rig name r ~now ~labels ~settles ~pending =
  check_float (name ^ ": clock") ~eps:0.0 now (Sim.Engine.now r.eng);
  Alcotest.(check (list (pair string int)))
    (name ^ ": events by label")
    labels
    (List.sort compare (Sim.Engine.label_counts r.eng));
  Alcotest.(check int) (name ^ ": settles") settles !(r.settles);
  Alcotest.(check (list (pair (float 0.0) string)))
    (name ^ ": pending") pending
    (Sim.Engine.pending_summary r.eng)

(* A thunk for 1000 pushed at 980, after the CPU's poll for 1000 was
   armed, makes a thread ready.  The poll pops first, but its wake comes
   after the thunk, so the loop resumes and dispatches the thread. *)
let test_quiet_heap_tie () =
  let r = idle_rig 1 in
  let resumed = ref nan in
  let b =
    Sim.Sched.create_thread r.sched ~name:"B" (fun th ->
        Sim.Sched.block r.sched th;
        resumed := Sim.Engine.now r.eng)
  in
  Sim.Engine.at r.eng 980.0 (fun () ->
      Sim.Engine.at r.eng 1000.0 (fun () -> Sim.Sched.wakeup r.sched b));
  Sim.Engine.run_until r.eng 1000.0;
  check_rig "at 1000" r ~now:1000.0
    ~labels:
      [ ("after", 35); ("at", 2); ("delay", 1); ("spawn", 2); ("wake", 37) ]
    ~settles:37 ~pending:[ (150.0, "delay") ];
  Sim.Engine.run_until r.eng 1200.0;
  check_float "thread resumed" ~eps:0.0 1150.0 !resumed;
  check_rig "at 1200" r ~now:1200.0
    ~labels:
      [ ("after", 37); ("at", 2); ("delay", 2); ("spawn", 2); ("wake", 41) ]
    ~settles:40 ~pending:[ (25.0, "after") ]

(* Two CPUs' polls tie at 1000; one CPU has an action queued, the other
   none.  In either order the busy CPU's loop resumes and drains, and the
   quiet one is re-parked. *)
let test_quiet_tie_mixed () =
  List.iter
    (fun busy ->
      let r = idle_rig 2 in
      Sim.Engine.at r.eng 990.0 (fun () -> r.needed.(busy) <- true);
      Sim.Engine.run_until r.eng 1100.0;
      let name = Printf.sprintf "CPU %d busy" busy in
      Alcotest.(check (list (pair int (float 0.0))))
        (name ^ ": drains") [ (busy, 1000.0) ] !(r.drains);
      check_rig name r ~now:1100.0
        ~labels:
          [ ("after", 87); ("at", 1); ("delay", 1); ("spawn", 2); ("wake", 87) ]
        ~settles:89 ~pending:[ (5.0, "after"); (25.0, "after") ])
    [ 0; 1 ]

(* A [run_until] limit inside a run of polls: the clock ends at the limit,
   with the polls after it still pending; a limit at a poll's instant
   runs that poll. *)
let test_quiet_run_until () =
  let r = idle_rig 2 in
  Sim.Engine.run_until r.eng 1010.0;
  check_rig "limit between polls" r ~now:1010.0
    ~labels:
      [ ("after", 80); ("at", 0); ("delay", 0); ("spawn", 2); ("wake", 80) ]
    ~settles:82 ~pending:[ (15.0, "after"); (15.0, "after") ];
  Sim.Engine.run_until r.eng 1050.0;
  check_rig "limit at a poll" r ~now:1050.0
    ~labels:
      [ ("after", 84); ("at", 0); ("delay", 0); ("spawn", 2); ("wake", 84) ]
    ~settles:86 ~pending:[ (25.0, "after"); (25.0, "after") ]

(* Two idle CPUs and nothing else never drain the queues, so the budget
   trips.  Dispatched one by one, a tied pair of polls pops two timers,
   then two wakes; budgets 40..43 trip at each of those four positions:
   the two wakes at 250, then the two timers at 275. *)
let test_quiet_runaway () =
  let trip budget =
    let r = idle_rig 2 in
    Sim.Engine.set_max_events r.eng budget;
    match Sim.Engine.run r.eng with
    | () -> Alcotest.fail "expected Runaway"
    | exception Sim.Engine.Runaway x ->
        ( budget,
          ( x.Sim.Engine.runaway_events,
            x.Sim.Engine.runaway_at,
            x.Sim.Engine.runaway_pending ) )
  in
  let tripped =
    Alcotest.(pair int (triple int (float 0.0) (list (pair string int))))
  in
  Alcotest.(check (list tripped))
    "budget -> events, instant, pending"
    [
      (40, (41, 250.0, [ ("wake", 2) ]));
      (41, (42, 250.0, [ ("after", 1); ("wake", 1) ]));
      (42, (43, 275.0, [ ("after", 2) ]));
      (43, (44, 275.0, [ ("after", 1); ("wake", 1) ]));
    ]
    (List.map trip [ 40; 41; 42; 43 ])

(* A poke wakes a quiet CPU between polls: it re-parks on a fresh
   wakener, and the timer it armed before the poke sits at the poll
   lane's head, stale, ahead of the new one. *)
let test_quiet_stale_head () =
  let r = idle_rig 1 in
  Sim.Engine.at r.eng 1010.0 (fun () ->
      Sim.Engine.wake r.eng r.cpus.(0).Sim.Cpu.sleeper);
  Sim.Engine.run_until r.eng 1020.0;
  check_rig "before the stale timer" r ~now:1020.0
    ~labels:
      [ ("after", 40); ("at", 1); ("delay", 0); ("spawn", 1); ("wake", 41) ]
    ~settles:42 ~pending:[ (5.0, "after"); (15.0, "after") ];
  Sim.Engine.run_until r.eng 1100.0;
  check_rig "after it" r ~now:1100.0
    ~labels:
      [ ("after", 44); ("at", 1); ("delay", 0); ("spawn", 1); ("wake", 44) ]
    ~settles:45 ~pending:[ (10.0, "after") ]

(* Under an explorer every tie of two live polls is a choice, so no poll
   is re-armed in place: the explorer is offered the same decisions. *)
let test_quiet_explorer () =
  let r = idle_rig 2 in
  let ex = Sim.Explore.create ~prefix:[| 1; 0; 1; 1 |] () in
  Sim.Engine.set_explore r.eng (Some ex);
  Sim.Engine.at r.eng 60.0 (fun () -> r.needed.(1) <- true);
  Sim.Engine.run_until r.eng 150.0;
  Alcotest.(check (list (triple string int int)))
    "decisions"
    [
      ("tie", 2, 1); ("tie", 2, 0); ("tie", 2, 1); ("tie", 2, 1); ("tie", 2, 0);
      ("tie", 2, 0); ("tie", 2, 0); ("tie", 2, 0); ("tie", 2, 0);
    ]
    (List.map
       (fun (d : Sim.Explore.decision) ->
         (Sim.Explore.kind_name d.d_kind, d.d_alts, d.d_chosen))
       (Sim.Explore.decisions ex));
  Alcotest.(check (list (pair int (float 0.0))))
    "drains" [ (1, 75.0) ] !(r.drains);
  check_rig "at 150" r ~now:150.0
    ~labels:
      [ ("after", 11); ("at", 1); ("delay", 1); ("spawn", 2); ("wake", 11) ]
    ~settles:13 ~pending:[ (5.0, "after"); (25.0, "after") ]

(* [Sched.quiet] runs on every idle poll: it allocates nothing. *)
let test_quiet_allocates_nothing () =
  let m = Vm.Machine.create () in
  Sim.Engine.run_until m.Vm.Machine.eng 1000.0;
  let sched = m.Vm.Machine.sched in
  let cpus = Sim.Sched.cpus sched in
  Alcotest.(check int) "16 CPUs" 16 (Array.length cpus);
  let quiet = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    if Sim.Sched.quiet sched cpus.(i land 15) then incr quiet
  done;
  let words = Gc.minor_words () -. before in
  check_float "minor words" ~eps:0.0 0.0 words;
  Alcotest.(check int) "every CPU quiet" 10_000 !quiet

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "delay accumulates" `Quick test_delay_accumulates;
          Alcotest.test_case "fifo same instant" `Quick test_fifo_same_instant;
          Alcotest.test_case "interleaving" `Quick test_interleaving;
          Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "runaway guard" `Quick test_runaway;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "heap",
        List.map QCheck_alcotest.to_alcotest [ heap_sorted; heap_interleaved ]
      );
      ( "queue order",
        [
          QCheck_alcotest.to_alcotest queue_order_matches_reference;
          Alcotest.test_case "same-instant runaway" `Quick
            test_same_instant_runaway;
          Alcotest.test_case "run_until never goes back" `Quick
            test_run_until_backwards;
          Alcotest.test_case "explorer tie across queues" `Quick
            test_explorer_tie_across_queues;
          QCheck_alcotest.to_alcotest poll_order_matches_reference;
          Alcotest.test_case "explorer tie across three queues" `Quick
            test_explorer_tie_three_queues;
        ] );
      ( "timer fusion",
        [
          Alcotest.test_case "heap tie" `Quick test_fusion_heap_tie;
          Alcotest.test_case "poll tie" `Quick test_fusion_poll_tie;
          Alcotest.test_case "same-instant lane busy" `Quick
            test_fusion_lane_busy;
          Alcotest.test_case "explorer tie" `Quick test_fusion_explorer_tie;
          Alcotest.test_case "explorer, nothing tied" `Quick
            test_fusion_explorer_alone;
          Alcotest.test_case "run_until at the timer" `Quick
            test_fusion_run_until;
          Alcotest.test_case "budget trips on the wake" `Quick
            test_fusion_runaway;
        ] );
      ( "quiet poll loop",
        [
          Alcotest.test_case "heap tie readies a thread" `Quick
            test_quiet_heap_tie;
          Alcotest.test_case "tied polls, one quiet" `Quick
            test_quiet_tie_mixed;
          Alcotest.test_case "run_until limit inside a run" `Quick
            test_quiet_run_until;
          Alcotest.test_case "budget trips inside a run" `Quick
            test_quiet_runaway;
          Alcotest.test_case "stale timer at the head" `Quick
            test_quiet_stale_head;
          Alcotest.test_case "explorer attached" `Quick test_quiet_explorer;
          Alcotest.test_case "Sched.quiet allocates nothing" `Quick
            test_quiet_allocates_nothing;
          QCheck_alcotest.to_alcotest idle_order_matches_reference;
          QCheck_alcotest.to_alcotest many_idle_loops_match_reference;
        ] );
      ( "prng",
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic
        :: Alcotest.test_case "int and bool allocate nothing" `Quick
             test_prng_allocates_nothing
        :: List.map QCheck_alcotest.to_alcotest
             [
               prng_float_range;
               prng_int_range;
               prng_matches_reference;
               prng_derived_match_reference;
             ] );
      ( "bus",
        [
          Alcotest.test_case "fcfs" `Quick test_bus_fcfs;
          Alcotest.test_case "idle no queue" `Quick test_bus_idle_no_queue;
        ] );
      ( "interrupt-controller",
        [
          Alcotest.test_case "equal level is masked" `Quick
            test_deliverable_strictly_above_ipl;
          Alcotest.test_case "posts coalesce per kind" `Quick
            test_post_coalesces_per_kind;
          Alcotest.test_case "take clears only its kind" `Quick
            test_take_clears_only_taken_kind;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "interrupt cuts sleep" `Quick
            test_interrupt_cuts_sleep;
          Alcotest.test_case "masking defers" `Quick
            test_interrupt_masked_until_ipl_drop;
          Alcotest.test_case "step resumes after handler" `Quick
            test_interrupt_step_resumes;
          Alcotest.test_case "device masks shootdown" `Quick
            test_device_priority_over_shootdown;
          Alcotest.test_case "high-priority shootdown" `Quick
            test_high_priority_shootdown_preempts_device_mask;
          Alcotest.test_case "nested interrupt preemption" `Quick
            test_nested_interrupt_preemption;
          Alcotest.test_case "equal priority defers" `Quick
            test_masked_service_blocks_equal_priority;
          Alcotest.test_case "spl sections delay shootdowns" `Quick
            test_kernel_step_spl_sections_delay_shootdown;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_spinlock_mutual_exclusion;
          Alcotest.test_case "ipl pairing" `Quick test_spinlock_raises_ipl;
        ] );
      ( "sched",
        [
          Alcotest.test_case "parallel threads" `Quick
            test_threads_run_in_parallel;
          Alcotest.test_case "oversubscription" `Quick
            test_more_threads_than_cpus;
          Alcotest.test_case "bound threads" `Quick test_bound_threads;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "sleep" `Quick test_sleep;
          Alcotest.test_case "producer/consumer" `Quick
            test_mutex_condvar_producer_consumer;
          Alcotest.test_case "yield alternation" `Quick test_yield_shares_cpu;
        ] );
    ]
