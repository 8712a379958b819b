(* Binary min-heap keyed by (time, sequence number).  The sequence number
   makes the ordering total, so events scheduled for the same instant
   fire in FIFO order — a property the engine's determinism tests rely
   on.

   Storage is structure-of-arrays, and an index heap: [times], [seqs] and
   [slots] are indexed by heap position, and [vals] is a payload slab
   that [slots] points into.  [slots] is a permutation of
   [0 .. capacity - 1]: its positions [0, size) name the live entries'
   slab indices, and its positions [size, capacity) hold the free ones.
   A push writes its payload once, into the free slab index at position
   [size]; a pop reads the root's payload, clears that slab index with
   [dummy] and leaves the index at position [size], free again.  The
   sifts in between move only floats and ints, so they pay no write
   barrier: a pointer stored into a major-heap array costs a
   [caml_modify], and a sift would otherwise store one per level.

   Nothing allocates: the times are an unboxed [float array], and there
   is no per-entry tuple.  Sifting uses the hole technique — the moving
   entry is held in registers and written once at its final position —
   so a sift of depth d costs d position copies instead of 3d. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> slab index *)
  mutable vals : 'a array; (* the slab *)
  mutable size : int;
  dummy : 'a;
}

let initial_capacity = 64

let create ~dummy () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    slots = Array.init initial_capacity Fun.id;
    vals = Array.make initial_capacity dummy;
    size = 0;
    dummy;
  }

let length h = h.size
let[@inline] is_empty h = h.size = 0

(* Double the capacity.  The heap is full, so [slots] is a permutation of
   [0 .. n - 1]; the new slab indices [n .. 2n - 1] are the free ones. *)
let grow h =
  let n = Array.length h.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  h.times <- extend h.times 0.;
  h.seqs <- extend h.seqs 0;
  h.slots <- Array.init (2 * n) (fun i -> if i < n then h.slots.(i) else i);
  h.vals <- extend h.vals h.dummy

(* Sift the entry at position [i] up, reading its key from the arrays:
   bubble the hole up while the parent is later than the key.  Not
   inlined, and it takes no float, so [push] inlines small. *)
let[@inline never] sift_up h i =
  let time = h.times.(i) and seq = h.seqs.(i) and s = h.slots.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = h.times.(p) in
    if time < pt || (time = pt && seq < h.seqs.(p)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(p);
      h.slots.(!i) <- h.slots.(p);
      i := p
    end
    else moving := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.slots.(!i) <- s

(* Store the entry at position [size], the free slab index there taking
   its payload, then sift it up.  Inlined, so a time computed by the
   caller reaches the array unboxed; built with -opaque (dune's dev
   profile) nothing is inlined across modules, and the caller boxes it. *)
let[@inline] push h time seq v =
  if h.size = Array.length h.times then grow h;
  let i = h.size in
  h.vals.(h.slots.(i)) <- v;
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.size <- i + 1;
  sift_up h i

(* Remove the root and re-establish the heap by sifting the last entry
   down from the top (hole technique again).  The root's slab index ends
   at position [size], the first free one. *)
let remove_min h =
  h.size <- h.size - 1;
  let n = h.size in
  let root = h.slots.(0) in
  h.vals.(root) <- h.dummy (* release the payload reference *);
  if n > 0 then begin
    let mt = h.times.(n) and ms = h.seqs.(n) and mslot = h.slots.(n) in
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
          h.slots.(!i) <- h.slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.times.(!i) <- mt;
    h.seqs.(!i) <- ms;
    h.slots.(!i) <- mslot;
    h.slots.(n) <- root
  end

(* Unchecked root accessors for a caller that knows the heap is
   non-empty.  [root_time] is small enough to inline, so the time it
   reads stays unboxed. *)
let[@inline] root_time h = h.times.(0)
let[@inline] root_seq h = h.seqs.(0)
let[@inline] root_val h = h.vals.(h.slots.(0))

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let time = h.times.(0) and seq = h.seqs.(0) and v = root_val h in
  remove_min h;
  (time, seq, v)

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty";
  h.times.(0)

let pop_payload h =
  if h.size = 0 then invalid_arg "Heap.pop_payload: empty";
  let v = root_val h in
  remove_min h;
  v

(* Heap order, not time order — fine for the diagnostic summaries this
   exists for (counting pending events by kind on a Runaway). *)
let iter_payloads f h =
  for i = 0 to h.size - 1 do
    f h.vals.(h.slots.(i))
  done

(* Full-entry variant of [iter_payloads], same ordering caveat.  The
   model checker uses it to fold pending (time, label) pairs into a
   state fingerprint. *)
let iter_entries f h =
  for i = 0 to h.size - 1 do
    f h.times.(i) h.seqs.(i) h.vals.(h.slots.(i))
  done
