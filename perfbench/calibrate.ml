(* Host-speed calibration.

   This host's speed drifts: identical passes of a workload run up to
   1.5x slower for tens of seconds at a time, in CPU time as well as wall
   time, so a run's medians depend on when it ran.  A short fixed loop
   timed next to each pass measures the host's speed at that moment, and
   a pass time scaled by [reference /. loop time] is the time the pass
   would take at the reference speed.

   The loop does the simulator's kind of work — a coroutine resumed
   through an effect handler, a float-keyed binary heap, a hash table,
   short-lived allocation — but uses only the standard library, so no
   change to the simulator can speed it up or slow it down.  Everything
   it allocates dies young, so it leaves the major heap alone. *)

(* The loop's time on the 2-core Intel Xeon host the benchmark was tuned
   on, in a quiet period; normalised times are seconds at that speed. *)
let reference_s = 0.18

let iterations = 2_000_000

type _ Effect.t += Yield : int -> int Effect.t

let loop () =
  let heap = Array.make 32 0.0 and size = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push v =
    let i = ref !size in
    incr size;
    heap.(!i) <- v;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !size then fin := true
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < heap.(!i) then begin
          swap c !i;
          i := c
        end
        else fin := true
      end
    done;
    top
  in
  for i = 0 to 15 do
    push (float_of_int i)
  done;
  let table = Hashtbl.create 256 in
  let total = ref 0 in
  Effect.Deep.match_with
    (fun () ->
      for i = 1 to iterations do
        let t = pop () in
        push (t +. float_of_int ((i * 7919) land 127));
        let r = Effect.perform (Yield i) in
        Hashtbl.replace table (i land 255) (r, [ i; r ]);
        total := !total + r
      done)
    ()
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield i ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k (i land 7))
          | _ -> None);
    };
  ignore (Sys.opaque_identity !total)

(* Seconds the loop takes now. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  loop ();
  Unix.gettimeofday () -. t0
