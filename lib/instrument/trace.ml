(* Structured span-event tracing for the shootdown hot path.

   Where Xpr reproduces the Mach xpr circular buffer (integer args, fixed
   record shape), Trace records named events with typed attributes — the
   machine-readable stream the paper's Figure 1 anatomy views, the
   `tlbshoot trace` subcommand and offline analysis consume.  Producers
   (Sim.Engine, and Core.Probe for the shootdown protocol points) hold an
   optional [t] and emit only when one is attached, so the zero-tracer
   cost is a single branch.

   Events are instants unless [dur] is given, making them spans. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  name : string; (* e.g. "initiator.queue-action", "tlb.flush" *)
  cpu : int; (* -1 when not attributable to one CPU *)
  at : float; (* simulated us *)
  dur : float; (* 0.0 for instantaneous events *)
  attrs : (string * value) list;
}

type t = {
  cap : int option; (* ring-buffer bound; None = unbounded *)
  mutable ring : span array; (* allocated on first emit in ring mode *)
  mutable head : int; (* next write slot of the ring *)
  mutable stored : int; (* spans currently retained *)
  mutable spans : span list; (* unbounded mode, newest first *)
  mutable count : int; (* total emitted, including dropped *)
  mutable dropped : int; (* overwritten by the ring *)
  mutable enabled : bool;
  mutable sink : (span -> unit) option; (* streaming consumer *)
  marks : (int, float) Hashtbl.t; (* phase start times by slot *)
}

let create ?cap () =
  (match cap with
  | Some c when c < 1 -> invalid_arg "Trace.create: cap must be positive"
  | _ -> ());
  {
    cap;
    ring = [||];
    head = 0;
    stored = 0;
    spans = [];
    count = 0;
    dropped = 0;
    enabled = true;
    sink = None;
    marks = Hashtbl.create 8;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let is_enabled t = t.enabled
let set_sink t sink = t.sink <- sink

let emit t ~name ~cpu ~at ?(dur = 0.0) ?(attrs = []) () =
  if t.enabled then begin
    let s = { name; cpu; at; dur; attrs } in
    (match t.cap with
    | None ->
        t.spans <- s :: t.spans;
        t.stored <- t.stored + 1
    | Some c ->
        if Array.length t.ring = 0 then t.ring <- Array.make c s;
        (* At capacity the oldest span is overwritten, not the newest:
           the tail of a long run is what the timeline views need. *)
        if t.stored = c then t.dropped <- t.dropped + 1
        else t.stored <- t.stored + 1;
        t.ring.(t.head) <- s;
        t.head <- (t.head + 1) mod c);
    t.count <- t.count + 1;
    match t.sink with Some f -> f s | None -> ()
  end

let length t = t.stored
let emitted t = t.count
let dropped t = t.dropped

(* A capped buffer that wrapped has silently lost the oldest spans;
   report consumers print this so a truncated trace is never mistaken
   for a complete one. *)
let dropped_warning t =
  if t.dropped = 0 then None
  else
    Some
      (Printf.sprintf
         "warning: trace ring buffer dropped %d of %d spans (oldest \
          overwritten); raise the capacity to keep the full stream"
         t.dropped t.count)

let spans t =
  match t.cap with
  | None -> List.rev t.spans
  | Some c ->
      if t.stored = 0 then []
      else
        let start = (t.head - t.stored + (2 * c)) mod c in
        List.init t.stored (fun i -> t.ring.((start + i) mod c))

let mark t ~slot ~at = Hashtbl.replace t.marks slot at
let since t ~slot = Option.value (Hashtbl.find_opt t.marks slot) ~default:nan

let reset t =
  Hashtbl.reset t.marks;
  t.spans <- [];
  t.ring <- [||];
  t.head <- 0;
  t.stored <- 0;
  t.count <- 0;
  t.dropped <- 0

(* ------------------------------------------------------------------ *)
(* Rendering *)

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp_span ?(t0 = 0.0) s =
  let attrs =
    String.concat ""
      (List.map
         (fun (k, v) -> Printf.sprintf " %s=%s" k (value_to_string v))
         s.attrs)
  in
  let dur = if s.dur > 0.0 then Printf.sprintf " (%.1f us)" s.dur else "" in
  Printf.sprintf "%10.1f  cpu%-3s %-26s%s%s" (s.at -. t0)
    (if s.cpu < 0 then "-" else string_of_int s.cpu)
    s.name attrs dur

(* Chronological listing with timestamps relative to the earliest span.
   Spans are sorted by start time: duration-carrying spans (e.g. engine
   coroutines) are emitted at completion but belong where they began. *)
let render t =
  match spans t with
  | [] -> "(no spans recorded; attach the tracer before running)\n"
  | all -> (
      match List.stable_sort (fun a b -> compare a.at b.at) all with
      | [] -> assert false
      | first :: _ as sorted ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf
            "Span stream (relative simulated microseconds)\n\n";
          List.iter
            (fun s ->
              Buffer.add_string buf (pp_span ~t0:first.at s);
              Buffer.add_char buf '\n')
            sorted;
          Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* JSON *)

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let span_to_json s =
  Json.Obj
    ([
       ("name", Json.Str s.name);
       ("cpu", Json.Int s.cpu);
       ("at", Json.Float s.at);
     ]
    @ (if s.dur > 0.0 then [ ("dur", Json.Float s.dur) ] else [])
    @
    match s.attrs with
    | [] -> []
    | attrs ->
        [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)) ])

let to_json t = Json.List (List.map span_to_json (spans t))

(* The span report of `tlbshoot trace --json`: the retained spans plus
   the emitted/dropped counters a capped buffer needs to be read
   honestly (docs/OBSERVABILITY.md). *)
let report_json t =
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-spans-v1");
      ("emitted", Json.Int t.count);
      ("dropped", Json.Int t.dropped);
      ("spans", to_json t);
    ]
