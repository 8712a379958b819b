(* Address maps: the machine-independent description of an address space
   as a sorted list of non-overlapping entries, each mapping a range of
   virtual pages onto a window of a memory object.

   All memory-management information lives here; the pmap below is a
   lazily-filled cache rebuilt from page faults.  Operations deallocate
   and protect call down into the pmap layer, which is where TLB
   shootdowns originate. *)

module Addr = Hw.Addr
module Pmap = Core.Pmap
module Pmap_ops = Core.Pmap_ops

type inheritance = Inherit_none | Inherit_copy | Inherit_share

type entry = {
  mutable e_start : Addr.vpn; (* inclusive *)
  mutable e_end : Addr.vpn; (* exclusive *)
  mutable obj : Vm_object.t;
  mutable obj_offset : int; (* object page backing e_start *)
  mutable prot : Addr.prot;
  mutable max_prot : Addr.prot;
  mutable inh : inheritance;
  mutable needs_copy : bool; (* write must first shadow the object *)
  mutable wired : bool;
}

type t = {
  map_id : int;
  pmap : Pmap.t;
  lo : Addr.vpn;
  hi : Addr.vpn;
  mutable entries : entry list; (* sorted by e_start, non-overlapping *)
  map_lock : Sim.Sync.mutex;
  mutable size_pages : int;
  mutable quarantined : (Addr.vpn * Addr.vpn) list;
      (* ranges removed by a batched deallocate whose TLB invalidations
         have not flushed yet (docs/BATCHING.md): stale translations may
         still resolve them, so the space must not be reallocated.
         Always empty when batching is off. *)
}

(* The id comes from per-machine state, never a process-global counter:
   it is printed into the lock label, and what a run allocates must not
   depend on how many maps the process made before it. *)
let create ~pmap ~lo ~hi =
  let id_ = pmap.Pmap.space_id in
  {
    map_id = id_;
    pmap;
    lo;
    hi;
    entries = [];
    map_lock = Sim.Sync.create_mutex (Printf.sprintf "map%d" id_);
    size_pages = 0;
    quarantined = [];
  }

let lock (vms : Vmstate.t) self t = Sim.Sync.lock vms.Vmstate.sched self t.map_lock
let unlock (vms : Vmstate.t) self t = Sim.Sync.unlock vms.Vmstate.sched self t.map_lock

let lookup_entry t vpn =
  List.find_opt (fun e -> e.e_start <= vpn && vpn < e.e_end) t.entries

(* ------------------------------------------------------------------ *)
(* Object reference management (VM lock held). *)

let rec deallocate_object vms (obj : Vm_object.t) =
  obj.Vm_object.refs <- obj.Vm_object.refs - 1;
  if obj.Vm_object.refs = 0 then begin
    let pages = Hashtbl.fold (fun _ p acc -> p :: acc) obj.Vm_object.pages [] in
    List.iter (fun p -> Vmstate.release_page vms obj p) pages;
    match obj.Vm_object.shadow with
    | Some (below, _) ->
        obj.Vm_object.shadow <- None;
        below.Vm_object.shadows_of_me <-
          List.filter (fun o -> not (o == obj)) below.Vm_object.shadows_of_me;
        deallocate_object vms below
    | None -> ()
  end
  else if obj.Vm_object.refs = 1 then
    (* The last map reference may now be a shadow above us: let it absorb
       this object (vm_object_collapse on reference drop). *)
    List.iter
      (fun s ->
        match s.Vm_object.shadow with
        | Some (b, _) when b == obj -> Vmstate.collapse_chain vms s
        | Some _ | None -> ())
      obj.Vm_object.shadows_of_me

(* ------------------------------------------------------------------ *)
(* Entry clipping: split entries so that [lo, hi) falls on boundaries. *)

let clip_entry e ~at =
  (* split e into [e_start, at) and [at, e_end); returns the second *)
  let right =
    {
      e_start = at;
      e_end = e.e_end;
      obj = e.obj;
      obj_offset = e.obj_offset + (at - e.e_start);
      prot = e.prot;
      max_prot = e.max_prot;
      inh = e.inh;
      needs_copy = e.needs_copy;
      wired = e.wired;
    }
  in
  Vm_object.reference e.obj;
  e.e_end <- at;
  right

let clip_range t ~lo ~hi =
  let rec go = function
    | [] -> []
    | e :: rest when e.e_end <= lo || e.e_start >= hi -> e :: go rest
    | e :: rest ->
        if e.e_start < lo then begin
          let right = clip_entry e ~at:lo in
          e :: go (right :: rest)
        end
        else if e.e_end > hi then begin
          let right = clip_entry e ~at:hi in
          e :: right :: go rest
        end
        else e :: go rest
  in
  t.entries <- go t.entries

(* Entries wholly inside [lo, hi) (after clipping). *)
let entries_in t ~lo ~hi =
  List.filter (fun e -> e.e_start >= lo && e.e_end <= hi) t.entries

(* ------------------------------------------------------------------ *)
(* Simplification: merge adjacent entries that are continuations of each
   other (same object, contiguous offsets, identical attributes) — Mach's
   vm_map_simplify.  Keeps long-lived maps from accumulating clip scars.
   Call with the map lock held. *)

let mergeable a b =
  a.e_end = b.e_start
  && a.obj == b.obj
  && a.obj_offset + (a.e_end - a.e_start) = b.obj_offset
  && a.prot = b.prot && a.max_prot = b.max_prot && a.inh = b.inh
  && a.needs_copy = b.needs_copy && a.wired = b.wired

let simplify t =
  let rec merge = function
    | a :: b :: rest when mergeable a b ->
        a.e_end <- b.e_end;
        (* the absorbed entry held its own reference on the object *)
        b.obj.Vm_object.refs <- b.obj.Vm_object.refs - 1;
        merge (a :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  t.entries <- merge t.entries

let entry_count t = List.length t.entries

(* ------------------------------------------------------------------ *)
(* Allocation *)

exception No_space

(* Quarantined ranges (batched deallocations not yet flushed) block
   allocation exactly like live entries: a stale TLB entry may still
   translate them.  With no open batches the obstacle list is the entry
   list and the walk is the historical one. *)
let find_space t ~pages =
  let obstacles =
    match t.quarantined with
    | [] -> List.map (fun e -> (e.e_start, e.e_end)) t.entries
    | q ->
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          (List.map (fun e -> (e.e_start, e.e_end)) t.entries)
          (List.sort compare q)
  in
  let rec go prev_end = function
    | [] -> if prev_end + pages <= t.hi then prev_end else raise No_space
    | (s, e) :: rest ->
        if s - prev_end >= pages then prev_end else go (max prev_end e) rest
  in
  go t.lo obstacles

let insert_entry t entry =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest ->
        if entry.e_start < e.e_start then entry :: e :: rest else e :: go rest
  in
  t.entries <- go t.entries;
  t.size_pages <- t.size_pages + (entry.e_end - entry.e_start)

(* Allocate [pages] of zero-fill memory; returns the starting vpn.
   Nothing is entered in the pmap — pages materialize on first touch. *)
let allocate vms self t ~pages ?(prot = Addr.Prot_read_write)
    ?(max_prot = Addr.Prot_read_write) ?(inh = Inherit_copy) ?(wired = false)
    ?at () =
  if pages <= 0 then invalid_arg "Vm_map.allocate: pages must be positive";
  lock vms self t;
  let start = match at with Some vpn -> vpn | None -> find_space t ~pages in
  (match at with
  | Some vpn ->
      if
        List.exists
          (fun e -> e.e_start < vpn + pages && vpn < e.e_end)
          t.entries
        || List.exists
             (fun (ql, qh) -> ql < vpn + pages && vpn < qh)
             t.quarantined
      then begin
        unlock vms self t;
        raise No_space
      end
  | None -> ());
  let obj = Vm_object.create ~size:pages () in
  insert_entry t
    {
      e_start = start;
      e_end = start + pages;
      obj;
      obj_offset = 0;
      prot;
      max_prot;
      inh;
      needs_copy = false;
      wired;
    };
  unlock vms self t;
  start

(* Map an existing object (e.g. a "file") into the address space. *)
let map_object vms self t ~obj ~obj_offset ~pages ?(prot = Addr.Prot_read_write)
    ?(max_prot = Addr.Prot_read_write) ?(inh = Inherit_share)
    ?(needs_copy = false) ?at () =
  lock vms self t;
  let start = match at with Some vpn -> vpn | None -> find_space t ~pages in
  Vm_object.reference obj;
  insert_entry t
    {
      e_start = start;
      e_end = start + pages;
      obj;
      obj_offset;
      prot;
      max_prot;
      inh;
      needs_copy;
      wired = false;
    };
  unlock vms self t;
  start

(* ------------------------------------------------------------------ *)
(* Deallocation: remove the address range, invalidate any hardware
   mappings (shootdown), release the object references. *)

let deallocate vms self t ~lo ~hi =
  lock vms self t;
  clip_range t ~lo ~hi;
  let doomed = entries_in t ~lo ~hi in
  t.entries <- List.filter (fun e -> not (List.memq e doomed)) t.entries;
  t.size_pages <-
    t.size_pages - List.fold_left (fun a e -> a + (e.e_end - e.e_start)) 0 doomed;
  (* Hardware mappings go first, while the map lock prevents refault.
     The CPU is fetched after the blocking lock: we may have migrated.
     Being a pure removal, this is also the elision call site: with
     Params.elide_reuse_flushes on, Pmap_ops.remove may retire the
     consistency round as a generation bump (docs/ELISION.md). *)
  if doomed <> [] then
    Pmap_ops.remove vms.Vmstate.ctx
      (Sim.Sched.current_cpu self)
      t.pmap ~lo ~hi;
  Sim.Sync.lock vms.Vmstate.sched self vms.Vmstate.vm_lock;
  List.iter (fun e -> deallocate_object vms e.obj) doomed;
  Sim.Sync.unlock vms.Vmstate.sched self vms.Vmstate.vm_lock;
  simplify t;
  unlock vms self t

(* ------------------------------------------------------------------ *)
(* Protection *)

exception Protection_failure

let protect vms self t ~lo ~hi ~prot =
  lock vms self t;
  clip_range t ~lo ~hi;
  let affected = entries_in t ~lo ~hi in
  if List.exists (fun e -> not (Addr.prot_allows_subset ~outer:e.max_prot ~inner:prot)) affected
  then begin
    unlock vms self t;
    raise Protection_failure
  end;
  List.iter (fun e -> e.prot <- prot) affected;
  (* The pmap may hold mappings with stale (greater) rights: reduce them.
     Increases need no pmap work — the fault handler upgrades on demand. *)
  if affected <> [] then
    Pmap_ops.protect vms.Vmstate.ctx
      (Sim.Sched.current_cpu self)
      t.pmap ~lo ~hi ~prot;
  simplify t;
  unlock vms self t

let set_inheritance vms self t ~lo ~hi ~inh =
  lock vms self t;
  clip_range t ~lo ~hi;
  List.iter (fun e -> e.inh <- inh) (entries_in t ~lo ~hi);
  simplify t;
  unlock vms self t

(* ------------------------------------------------------------------ *)
(* Fork: build a child map according to per-entry inheritance.  Copy
   entries become copy-on-write: both sides share the object read-only
   and shadow it on first write; the parent's existing write mappings
   must be downgraded — a shootdown if the parent runs on other CPUs. *)

let fork vms self parent ~child_pmap =
  lock vms self parent;
  let ctx = vms.Vmstate.ctx in
  (* Batched COW teardown (docs/BATCHING.md): every Inherit_copy entry's
     write-mapping downgrade joins one gather, flushed in a single
     shootdown round before the map unlocks, instead of one round per
     entry.  Safe because the parent's stale writable translations are
     destroyed before fork returns — the same guarantee the per-entry
     protects gave, delivered once. *)
  let batch =
    if ctx.Pmap.params.Sim.Params.batch_shootdowns then
      Some (Core.Gather.start ctx parent.pmap)
    else None
  in
  let child = create ~pmap:child_pmap ~lo:parent.lo ~hi:parent.hi in
  List.iter
    (fun e ->
      match e.inh with
      | Inherit_none -> ()
      | Inherit_share ->
          Vm_object.reference e.obj;
          insert_entry child
            {
              e_start = e.e_start;
              e_end = e.e_end;
              obj = e.obj;
              obj_offset = e.obj_offset;
              prot = e.prot;
              max_prot = e.max_prot;
              inh = e.inh;
              needs_copy = false;
              wired = false;
            }
      | Inherit_copy ->
          Vm_object.reference e.obj;
          insert_entry child
            {
              e_start = e.e_start;
              e_end = e.e_end;
              obj = e.obj;
              obj_offset = e.obj_offset;
              prot = e.prot;
              max_prot = e.max_prot;
              inh = e.inh;
              needs_copy = true;
              wired = false;
            };
          e.needs_copy <- true;
          (* Existing parent write mappings must become read-only so the
             parent's next write shadows the object. *)
          if Addr.prot_allows e.prot Addr.Write_access then begin
            match batch with
            | Some g ->
                Core.Gather.protect g
                  (Sim.Sched.current_cpu self)
                  ~lo:e.e_start ~hi:e.e_end ~prot:Addr.Prot_read
            | None ->
                Pmap_ops.protect vms.Vmstate.ctx
                  (Sim.Sched.current_cpu self)
                  parent.pmap ~lo:e.e_start ~hi:e.e_end ~prot:Addr.Prot_read
          end)
    parent.entries;
  (match batch with
  | Some g -> Core.Gather.finish g (Sim.Sched.current_cpu self)
  | None -> ());
  unlock vms self parent;
  child

(* Tear down an entire map (address space death). *)
let destroy vms self t =
  deallocate vms self t ~lo:t.lo ~hi:t.hi;
  Pmap_ops.destroy vms.Vmstate.ctx (Sim.Sched.current_cpu self) t.pmap
