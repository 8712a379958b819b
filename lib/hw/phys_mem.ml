(* Physical memory: a word-addressable store plus a frame allocator.

   Real data lives here so that the section 5.1 consistency tester can
   observe genuinely stale TLB entries: its counters are words in a frame,
   incremented through simulated translation.

   A run writes only a few of its frames, so storage is allocated on first
   use: every frame starts as the shared [unbacked] sentinel, reads of it
   return 0, and its first [write] (or the [copy_frame] that lands real
   data in it) gives it a page of its own.  The allocator is a counter
   of frames never handed out plus a small stack of freed ones.
   Creating a machine therefore costs one frames-sized array of
   pointers to the sentinel, not a zero-filled frames-sized page store
   or a frames-sized free list. *)

type t = {
  store : int array array; (* one page of words per frame, or [unbacked] *)
  mutable fresh : int; (* frames [fresh, frames) were never handed out *)
  mutable freed : Addr.pfn array; (* stack of freed frames, grown on demand *)
  mutable nfreed : int; (* its top is at [nfreed - 1] *)
}

let unbacked : int array = [||]

(* Frames are handed out lowest first, and a freed frame is the next one
   handed out (LIFO): the freed stack is drained before [fresh] moves.
   A run frees few frames, so the stack starts small instead of holding
   every frame. *)
let create ~frames =
  {
    store = Array.make frames unbacked;
    fresh = 0;
    freed = Array.make 16 0;
    nfreed = 0;
  }

let frames t = Array.length t.store
let free_frames t = frames t - t.fresh + t.nfreed

exception Out_of_memory

let alloc_frame t =
  if t.nfreed > 0 then begin
    t.nfreed <- t.nfreed - 1;
    t.freed.(t.nfreed)
  end
  else if t.fresh < frames t then begin
    t.fresh <- t.fresh + 1;
    t.fresh - 1
  end
  else raise Out_of_memory

let free_frame t pfn =
  if pfn < 0 || pfn >= frames t || free_frames t = frames t then
    invalid_arg "Phys_mem.free_frame";
  if t.nfreed = Array.length t.freed then begin
    let freed = Array.make (2 * t.nfreed) 0 in
    Array.blit t.freed 0 freed 0 t.nfreed;
    t.freed <- freed
  end;
  t.freed.(t.nfreed) <- pfn;
  t.nfreed <- t.nfreed + 1

let check_frame t pfn =
  if pfn < 0 || pfn >= frames t then invalid_arg "Phys_mem: bad frame"

let word_index t ~pfn ~offset =
  check_frame t pfn;
  if offset < 0 || offset >= Addr.page_size then
    invalid_arg "Phys_mem: bad offset";
  offset / Addr.word_size

let read t ~pfn ~offset =
  let i = word_index t ~pfn ~offset in
  let page = t.store.(pfn) in
  if page == unbacked then 0 else page.(i)

let write t ~pfn ~offset v =
  let i = word_index t ~pfn ~offset in
  if t.store.(pfn) == unbacked then
    t.store.(pfn) <- Array.make Addr.words_per_page 0;
  t.store.(pfn).(i) <- v

let zero_frame t pfn =
  check_frame t pfn;
  let page = t.store.(pfn) in
  if page != unbacked then Array.fill page 0 Addr.words_per_page 0

let copy_frame t ~src ~dst =
  check_frame t src;
  check_frame t dst;
  let from = t.store.(src) in
  if from == unbacked then zero_frame t dst
  else
    let page = t.store.(dst) in
    if page == unbacked then t.store.(dst) <- Array.copy from
    else Array.blit from 0 page 0 Addr.words_per_page
