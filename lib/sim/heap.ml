(* Binary min-heap keyed by (time, sequence number).  The sequence number
   makes the ordering total, so events scheduled for the same instant
   fire in FIFO order — a property the engine's determinism tests rely
   on.

   Storage is structure-of-arrays: an unboxed [float array] of times, an
   [int array] of sequence numbers and a payload array.  The old
   array-of-tuples layout allocated a fresh [(float, int, 'a)] tuple
   (plus a boxed float) for every push and every sift swap; on the
   simulator hot path that was one short-lived allocation per scheduled
   event.  Sifting uses the hole technique — the moving element is held
   in registers and written once at its final slot — so a sift of depth d
   costs d slot copies instead of 3d. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  dummy : 'a;
}

let initial_capacity = 64

let create ~dummy () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity dummy;
    size = 0;
    dummy;
  }

let length h = h.size
let[@inline] is_empty h = h.size = 0

let grow h =
  let n = Array.length h.times in
  let times = Array.make (2 * n) 0. in
  let seqs = Array.make (2 * n) 0 in
  let vals = Array.make (2 * n) h.dummy in
  Array.blit h.times 0 times 0 n;
  Array.blit h.seqs 0 seqs 0 n;
  Array.blit h.vals 0 vals 0 n;
  h.times <- times;
  h.seqs <- seqs;
  h.vals <- vals

let push h time seq v =
  if h.size = Array.length h.times then grow h;
  let i = ref h.size in
  h.size <- h.size + 1;
  (* bubble the hole up: parents later than (time, seq) slide down *)
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = h.times.(p) in
    if time < pt || (time = pt && seq < h.seqs.(p)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    end
    else moving := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v

(* Remove the root and re-establish the heap by sifting the last element
   down from the top (hole technique again). *)
let remove_min h =
  h.size <- h.size - 1;
  let n = h.size in
  let mt = h.times.(n) and ms = h.seqs.(n) and mv = h.vals.(n) in
  h.vals.(n) <- h.dummy (* release the payload reference *);
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
            && (h.times.(r) < h.times.(l)
               || (h.times.(r) = h.times.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        let ct = h.times.(c) in
        if ct < mt || (ct = mt && h.seqs.(c) < ms) then begin
          h.times.(!i) <- ct;
          h.seqs.(!i) <- h.seqs.(c);
          h.vals.(!i) <- h.vals.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.times.(!i) <- mt;
    h.seqs.(!i) <- ms;
    h.vals.(!i) <- mv
  end

(* Unchecked root accessors for a caller that knows the heap is
   non-empty.  [root_time] is small enough to inline, so the time it
   reads stays unboxed. *)
let[@inline] root_time h = h.times.(0)
let[@inline] root_seq h = h.seqs.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let time = h.times.(0) and seq = h.seqs.(0) and v = h.vals.(0) in
  remove_min h;
  (time, seq, v)

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty";
  h.times.(0)

let pop_payload h =
  if h.size = 0 then invalid_arg "Heap.pop_payload: empty";
  let v = h.vals.(0) in
  remove_min h;
  v

(* Heap order, not time order — fine for the diagnostic summaries this
   exists for (counting pending events by kind on a Runaway). *)
let iter_payloads f h =
  for i = 0 to h.size - 1 do
    f h.vals.(i)
  done

(* Full-entry variant of [iter_payloads], same ordering caveat.  The
   model checker uses it to fold pending (time, label) pairs into a
   state fingerprint. *)
let iter_entries f h =
  for i = 0 to h.size - 1 do
    f h.times.(i) h.seqs.(i) h.vals.(i)
  done
