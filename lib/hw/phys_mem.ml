(* Physical memory: a word-addressable store plus a frame allocator.

   Real data lives here so that the section 5.1 consistency tester can
   observe genuinely stale TLB entries: its counters are words in a frame,
   incremented through simulated translation.

   A run writes only a few of its frames, so storage is allocated on first
   use: every frame starts as the shared [unbacked] sentinel, reads of it
   return 0, and its first [write] (or the [copy_frame] that lands real
   data in it) gives it a page of its own.  Creating a machine therefore
   costs O(frames) pointer stores, not a zero-filled frames-sized page
   store. *)

type t = {
  store : int array array; (* one page of words per frame, or [unbacked] *)
  free : Addr.pfn array; (* stack of free frames, top at [nfree - 1] *)
  mutable nfree : int;
}

let unbacked : int array = [||]

(* Frames are handed out lowest first, and a freed frame is the next one
   handed out (LIFO). *)
let create ~frames =
  {
    store = Array.make frames unbacked;
    free = Array.init frames (fun i -> frames - 1 - i);
    nfree = frames;
  }

let frames t = Array.length t.store
let free_frames t = t.nfree

exception Out_of_memory

let alloc_frame t =
  if t.nfree = 0 then raise Out_of_memory;
  t.nfree <- t.nfree - 1;
  t.free.(t.nfree)

let free_frame t pfn =
  if pfn < 0 || pfn >= frames t || t.nfree = frames t then
    invalid_arg "Phys_mem.free_frame";
  t.free.(t.nfree) <- pfn;
  t.nfree <- t.nfree + 1

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
