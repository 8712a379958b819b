(* Two-level page tables in the style of the NS32382 MMU.

   Second-level tables are allocated lazily in page-sized chunks; a missing
   chunk proves that 1024 consecutive pages have no mappings, which is the
   "internal pmap module knowledge" form of lazy evaluation that the paper
   notes survives even when the per-page validity check is disabled
   (section 7.2).

   The first level is a flat [pte array array] whose absent slots all
   point at one shared, permanently-invalid chunk rather than [None]:
   a walk is two array probes with no option match, and [find] returns
   the PTE (possibly the shared invalid one) without allocating — the
   translation hot path through [Mmu] does not box an option per miss.
   The shared chunk is never written: [set] goes through [ensure_slot],
   which installs a real chunk first, and [clear] only touches valid
   entries (the sentinel is invalid forever), so sharing it across every
   page table — and across domains — is safe.

   A real chunk also starts as 1024 pointers to [no_pte]: a slot's own
   record is made the first time [set] reaches it, and then stays for
   the table's life, so [clear] and a later [set] of the same page reuse
   it and a TLB entry's [pte] still names the page's record.  Booting a
   machine thus fills a chunk with one shared pointer instead of
   allocating, storing and promoting 1024 records, most of them never
   mapped. *)

type pte = {
  mutable valid : bool;
  mutable pfn : Addr.pfn;
  mutable prot : Addr.prot;
  mutable wired : bool;
  mutable referenced : bool;
  mutable modified : bool;
}

let invalid_pte () =
  {
    valid = false;
    pfn = -1;
    prot = Addr.Prot_none;
    wired = false;
    referenced = false;
    modified = false;
  }

(* The shared always-invalid PTE ([no_pte]) and the chunk of 1024 pointers
   to it that stands in for every unallocated second-level table. *)
let no_pte = invalid_pte ()
let absent_chunk : pte array = Array.make 1024 no_pte

type t = {
  chunks : pte array array; (* 1024 first-level slots; [absent_chunk]
                               where no second-level table exists *)
  mutable valid_ptes : int; (* number of valid entries, for cheap emptiness *)
  mutable l2_tables : int;
}

let create () =
  { chunks = Array.make 1024 absent_chunk; valid_ptes = 0; l2_tables = 0 }

let valid_count t = t.valid_ptes
let l2_table_count t = t.l2_tables

(* Single-probe walk: the PTE for [vpn], which is [no_pte] (invalid) when
   the covering chunk was never allocated.  The result must be treated as
   read-only unless it is valid. *)
let find t vpn = t.chunks.(Addr.l1_index vpn).(Addr.l2_index vpn)

(* Look up without allocating on the miss path; [None] when the covering
   second-level chunk or the entry itself is absent/invalid. *)
let lookup t vpn =
  let pte = find t vpn in
  if pte.valid then Some pte else None

(* The record for [vpn], made on first use: its chunk is installed if
   absent, and its slot's own record if the slot still holds [no_pte]. *)
let ensure_slot t vpn =
  let i1 = Addr.l1_index vpn in
  let l2 = t.chunks.(i1) in
  let l2 =
    if l2 != absent_chunk then l2
    else begin
      let l2 = Array.make 1024 no_pte in
      t.chunks.(i1) <- l2;
      t.l2_tables <- t.l2_tables + 1;
      l2
    end
  in
  let i2 = Addr.l2_index vpn in
  let pte = l2.(i2) in
  if pte != no_pte then pte
  else begin
    let pte = invalid_pte () in
    l2.(i2) <- pte;
    pte
  end

(* Install or replace a mapping. *)
let set t vpn ~pfn ~prot ~wired =
  let pte = ensure_slot t vpn in
  if not pte.valid then t.valid_ptes <- t.valid_ptes + 1;
  pte.valid <- true;
  pte.pfn <- pfn;
  pte.prot <- prot;
  pte.wired <- wired;
  pte.referenced <- false;
  pte.modified <- false;
  pte

let clear t vpn =
  match lookup t vpn with
  | None -> None
  | Some pte ->
      pte.valid <- false;
      t.valid_ptes <- t.valid_ptes - 1;
      Some pte

(* Iterate over the *valid* entries of a vpn range, skipping 1024-page
   chunks whose second-level table was never allocated. *)
let iter_valid_range t ~lo ~hi f =
  let vpn = ref lo in
  while !vpn < hi do
    let l2 = t.chunks.(Addr.l1_index !vpn) in
    if l2 == absent_chunk then
      (* skip to the next second-level chunk *)
      vpn := (Addr.l1_index !vpn + 1) lsl 10
    else begin
      let chunk_end = ((Addr.l1_index !vpn + 1) lsl 10) - 1 in
      let stop = min hi (chunk_end + 1) in
      while !vpn < stop do
        let pte = l2.(Addr.l2_index !vpn) in
        if pte.valid then f !vpn pte;
        incr vpn
      done
    end
  done

(* Count valid entries in a range (the lazy-evaluation check). *)
let count_valid_range t ~lo ~hi =
  let n = ref 0 in
  iter_valid_range t ~lo ~hi (fun _ _ -> incr n);
  !n

let any_valid_in_range t ~lo ~hi =
  let found = ref false in
  (try
     iter_valid_range t ~lo ~hi (fun _ _ ->
         found := true;
         raise Exit)
   with Exit -> ());
  !found

(* Is any second-level chunk present under [lo, hi)?  This is the reduced
   lazy evaluation that remains even when the per-page validity check is
   disabled: a missing chunk proves 1024 pages are unmapped (section 7.2). *)
let any_chunk_in_range t ~lo ~hi =
  let c1 = Addr.l1_index lo and c2 = Addr.l1_index (hi - 1) in
  let rec go c =
    if c > c2 then false else t.chunks.(c) != absent_chunk || go (c + 1)
  in
  hi > lo && go c1

(* Pages actually examined by a per-page validity scan of [lo, hi), i.e.
   pages under present chunks (missing chunks are skipped in one step). *)
let pages_examined t ~lo ~hi =
  let n = ref 0 in
  let c1 = Addr.l1_index lo and c2 = Addr.l1_index (hi - 1) in
  if hi > lo then
    for c = c1 to c2 do
      if t.chunks.(c) != absent_chunk then begin
        let chunk_lo = max lo (c lsl 10) in
        let chunk_hi = min hi ((c + 1) lsl 10) in
        n := !n + (chunk_hi - chunk_lo)
      end
    done;
  !n

(* Release all second-level chunks (pmap destruction). *)
let destroy t =
  Array.fill t.chunks 0 (Array.length t.chunks) absent_chunk;
  t.valid_ptes <- 0;
  t.l2_tables <- 0
