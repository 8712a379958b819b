(* Circular event buffer in the style of the Mach xpr package the paper's
   measurements were taken with: each record carries an event code, the
   processor number, a microsecond timestamp and a few integer arguments.

   The shootdown code logs two event kinds (paper section 6):
   - initiator: kernel-or-user flag, pages involved, processors shot at,
     elapsed time until the initiator may change the pmap;
   - responder: elapsed time in the interrupt service routine (recorded on
     a fixed subset of processors to avoid lock-contention perturbation). *)

type code =
  | Shoot_initiator
  | Shoot_responder
  | Custom of int

let code_to_string = function
  | Shoot_initiator -> "shoot-initiator"
  | Shoot_responder -> "shoot-responder"
  | Custom n -> Printf.sprintf "custom-%d" n

type event = {
  code : code;
  cpu : int;
  timestamp : float; (* microseconds *)
  arg1 : int;
  arg2 : int;
  arg3 : int;
  farg : float; (* elapsed-time argument *)
}

type t = {
  mutable buf : event array;
  capacity : int;
  mutable next : int; (* next write slot *)
  mutable recorded : int; (* total events ever recorded *)
  mutable enabled : bool;
}

let dummy_event =
  {
    code = Custom (-1);
    cpu = -1;
    timestamp = 0.0;
    arg1 = 0;
    arg2 = 0;
    arg3 = 0;
    farg = 0.0;
  }

(* The ring starts small and doubles up to [capacity] as it fills, so an
   unused or lightly used buffer costs a few dozen slots, not [capacity]. *)
let initial_slots = 64

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Xpr.create: capacity";
  {
    buf = Array.make (min initial_slots capacity) dummy_event;
    capacity;
    next = 0;
    recorded = 0;
    enabled = true;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false

let reset t =
  t.next <- 0;
  t.recorded <- 0;
  t.buf <- Array.make (min initial_slots t.capacity) dummy_event

(* Until the ring first fills, [next = recorded]; it reaches the end of
   [buf] only while [buf] is still shorter than [capacity]. *)
let grow t =
  let len = Array.length t.buf in
  let bigger = Array.make (min (2 * len) t.capacity) dummy_event in
  Array.blit t.buf 0 bigger 0 len;
  t.buf <- bigger

let record t ~code ~cpu ~timestamp ?(arg1 = 0) ?(arg2 = 0) ?(arg3 = 0)
    ?(farg = 0.0) () =
  if t.enabled then begin
    if t.next = Array.length t.buf then grow t;
    t.buf.(t.next) <- { code; cpu; timestamp; arg1; arg2; arg3; farg };
    t.next <- (t.next + 1) mod t.capacity;
    t.recorded <- t.recorded + 1
  end

let recorded t = t.recorded
let overflowed t = t.recorded > t.capacity

(* Events in chronological order (oldest surviving first). *)
let to_list t =
  let n = min t.recorded t.capacity in
  let start = if t.recorded > t.capacity then t.next else 0 in
  List.init n (fun i -> t.buf.((start + i) mod t.capacity))

let filter t pred = List.filter pred (to_list t)

let events_with_code t code = filter t (fun e -> e.code = code)
