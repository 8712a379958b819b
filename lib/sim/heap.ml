(* Sharded binary min-heap keyed by (time, sequence number).  The sequence
   number makes the ordering total, so events scheduled for the same
   instant fire in FIFO order — a property the engine's determinism tests
   rely on.

   The heap is an array of independent sub-heaps ("shards"); the engine
   gives each bus cluster its own shard so that a 1024-CPU machine sifts
   through per-cluster heaps of hundreds of events instead of one heap of
   hundreds of thousands.  A pop scans the shard roots for the global
   (time, seq) minimum; because sequence numbers are globally unique and
   assigned at push time, the pop order is *identical* to a single heap's
   no matter how events are distributed over shards — sharding is a pure
   data-structure change, invisible to the simulation.

   Each sub-heap's storage is structure-of-arrays: an unboxed
   [float array] of times, an [int array] of sequence numbers and a
   payload array.  The old array-of-tuples layout allocated a fresh
   [(float, int, 'a)] tuple (plus a boxed float) for every push and every
   sift swap; on the simulator hot path that was one short-lived
   allocation per scheduled event.  Sifting uses the hole technique — the
   moving element is held in registers and written once at its final
   slot — so a sift of depth d costs d slot copies instead of 3d. *)

type 'a sub = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

type 'a t = { subs : 'a sub array; dummy : 'a }

let initial_capacity = 64

let make_sub dummy =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity dummy;
    size = 0;
  }

let create ?(shards = 1) ~dummy () =
  if shards < 1 then invalid_arg "Heap.create: shards must be positive";
  { subs = Array.init shards (fun _ -> make_sub dummy); dummy }

let shards h = Array.length h.subs

let length h = Array.fold_left (fun acc s -> acc + s.size) 0 h.subs

let is_empty h =
  let n = Array.length h.subs in
  let rec go i = i >= n || (h.subs.(i).size = 0 && go (i + 1)) in
  go 0

let grow s dummy =
  let n = Array.length s.times in
  let times = Array.make (2 * n) 0. in
  let seqs = Array.make (2 * n) 0 in
  let vals = Array.make (2 * n) dummy in
  Array.blit s.times 0 times 0 n;
  Array.blit s.seqs 0 seqs 0 n;
  Array.blit s.vals 0 vals 0 n;
  s.times <- times;
  s.seqs <- seqs;
  s.vals <- vals

let push h ?(shard = 0) time seq v =
  let s = h.subs.(shard) in
  if s.size = Array.length s.times then grow s h.dummy;
  let i = ref s.size in
  s.size <- s.size + 1;
  (* bubble the hole up: parents later than (time, seq) slide down *)
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = s.times.(p) in
    if time < pt || (time = pt && seq < s.seqs.(p)) then begin
      s.times.(!i) <- pt;
      s.seqs.(!i) <- s.seqs.(p);
      s.vals.(!i) <- s.vals.(p);
      i := p
    end
    else moving := false
  done;
  s.times.(!i) <- time;
  s.seqs.(!i) <- seq;
  s.vals.(!i) <- v

(* Shard holding the global (time, seq) minimum: scan the shard roots.
   Sequence numbers are globally unique, so the comparison is a strict
   total order and the winner is unambiguous. *)
let min_shard h =
  let n = Array.length h.subs in
  let best = ref (-1) in
  let bt = ref 0.0 and bs = ref 0 in
  for i = 0 to n - 1 do
    let s = h.subs.(i) in
    if s.size > 0 then
      let t = s.times.(0) and q = s.seqs.(0) in
      if !best < 0 || t < !bt || (t = !bt && q < !bs) then begin
        best := i;
        bt := t;
        bs := q
      end
  done;
  !best

(* Remove the root of sub-heap [s] and re-establish the heap by sifting
   the last element down from the top (hole technique again). *)
let remove_min h s =
  s.size <- s.size - 1;
  let n = s.size in
  let mt = s.times.(n) and ms = s.seqs.(n) and mv = s.vals.(n) in
  s.vals.(n) <- h.dummy (* release the payload reference *);
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (s.times.(r) < s.times.(l)
               || (s.times.(r) = s.times.(l) && s.seqs.(r) < s.seqs.(l)))
          then r
          else l
        in
        let ct = s.times.(c) in
        if ct < mt || (ct = mt && s.seqs.(c) < ms) then begin
          s.times.(!i) <- ct;
          s.seqs.(!i) <- s.seqs.(c);
          s.vals.(!i) <- s.vals.(c);
          i := c
        end
        else moving := false
      end
    done;
    s.times.(!i) <- mt;
    s.seqs.(!i) <- ms;
    s.vals.(!i) <- mv
  end

(* Root accessors for a caller that has already found the minimum shard
   with [min_shard]: reading the next time and popping then costs one root
   scan in all.  [root_time] is small enough to inline, so the time it
   reads stays unboxed. *)
let[@inline] root_time h k = h.subs.(k).times.(0)
let[@inline] root_seq h k = h.subs.(k).seqs.(0)

let pop_shard h k =
  let s = h.subs.(k) in
  let v = s.vals.(0) in
  remove_min h s;
  v

let pop h =
  let k = min_shard h in
  if k < 0 then invalid_arg "Heap.pop: empty";
  let s = h.subs.(k) in
  let time = s.times.(0) and seq = s.seqs.(0) and v = s.vals.(0) in
  remove_min h s;
  (time, seq, v)

let min_time h =
  let k = min_shard h in
  if k < 0 then invalid_arg "Heap.min_time: empty";
  h.subs.(k).times.(0)

let pop_payload h =
  let k = min_shard h in
  if k < 0 then invalid_arg "Heap.pop_payload: empty";
  pop_shard h k

(* Heap order within each shard, not time order — fine for the diagnostic
   summaries this exists for (counting pending events by kind on a
   Runaway).  Visits *every* shard: a runaway report under a sharded
   engine must tally the complete pending set, not just shard 0's. *)
let iter_payloads f h =
  Array.iter
    (fun s ->
      for i = 0 to s.size - 1 do
        f s.vals.(i)
      done)
    h.subs

(* Full-entry variant of [iter_payloads], same ordering caveat.  The
   model checker uses it to fold pending (time, label) pairs into a
   state fingerprint. *)
let iter_entries f h =
  Array.iter
    (fun s ->
      for i = 0 to s.size - 1 do
        f s.times.(i) s.seqs.(i) s.vals.(i)
      done)
    h.subs
