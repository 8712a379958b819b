(** Address maps: the machine-independent description of an address space
    as a sorted list of non-overlapping entries mapping page ranges onto
    memory-object windows (paper section 2).

    All memory-management information lives here; the pmap below is a
    lazily-filled cache rebuilt by page faults.  [deallocate] and
    [protect] call into the pmap layer — where TLB shootdowns originate. *)

type inheritance = Inherit_none | Inherit_copy | Inherit_share

type entry = {
  mutable e_start : Hw.Addr.vpn; (** inclusive *)
  mutable e_end : Hw.Addr.vpn; (** exclusive *)
  mutable obj : Vm_object.t;
  mutable obj_offset : int; (** object page backing [e_start] *)
  mutable prot : Hw.Addr.prot;
  mutable max_prot : Hw.Addr.prot;
  mutable inh : inheritance;
  mutable needs_copy : bool; (** a write must first shadow the object *)
  mutable wired : bool;
}

type t = {
  map_id : int; (** the pmap's space id, unique within a machine *)
  pmap : Core.Pmap.t;
  lo : Hw.Addr.vpn;
  hi : Hw.Addr.vpn;
  mutable entries : entry list;
  map_lock : Sim.Sync.mutex;
  mutable size_pages : int;
  mutable quarantined : (Hw.Addr.vpn * Hw.Addr.vpn) list;
      (** ranges removed by a batched deallocate whose TLB invalidations
          have not flushed yet: blocked from reallocation ([Batch] clears
          them after its flush); always empty when batching is off *)
}

val create : pmap:Core.Pmap.t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> t
val lock : Vmstate.t -> Sim.Sched.thread -> t -> unit
val unlock : Vmstate.t -> Sim.Sched.thread -> t -> unit
val lookup_entry : t -> Hw.Addr.vpn -> entry option

exception No_space

val allocate :
  Vmstate.t ->
  Sim.Sched.thread ->
  t ->
  pages:int ->
  ?prot:Hw.Addr.prot ->
  ?max_prot:Hw.Addr.prot ->
  ?inh:inheritance ->
  ?wired:bool ->
  ?at:Hw.Addr.vpn ->
  unit ->
  Hw.Addr.vpn
(** Allocate zero-fill memory; nothing enters the pmap until touched.
    @raise No_space if the range cannot be placed. *)

val map_object :
  Vmstate.t ->
  Sim.Sched.thread ->
  t ->
  obj:Vm_object.t ->
  obj_offset:int ->
  pages:int ->
  ?prot:Hw.Addr.prot ->
  ?max_prot:Hw.Addr.prot ->
  ?inh:inheritance ->
  ?needs_copy:bool ->
  ?at:Hw.Addr.vpn ->
  unit ->
  Hw.Addr.vpn
(** Map an existing object (a "file") into the address space. *)

val deallocate : Vmstate.t -> Sim.Sched.thread -> t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> unit
(** Remove the range: hardware mappings first (shootdown), then the
    object references. *)

exception Protection_failure

val protect :
  Vmstate.t ->
  Sim.Sched.thread ->
  t ->
  lo:Hw.Addr.vpn ->
  hi:Hw.Addr.vpn ->
  prot:Hw.Addr.prot ->
  unit
(** Change protection.  Reductions propagate to the pmap (shootdown);
    increases are picked up by faults.
    @raise Protection_failure when [prot] exceeds an entry's max. *)

val set_inheritance :
  Vmstate.t -> Sim.Sched.thread -> t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> inh:inheritance -> unit

val fork : Vmstate.t -> Sim.Sched.thread -> t -> child_pmap:Core.Pmap.t -> t
(** Build a child map by per-entry inheritance.  Copy entries become
    copy-on-write on both sides; the parent's writable mappings are
    downgraded (a shootdown if the parent runs elsewhere).  When
    [Params.batch_shootdowns] is set, every entry's downgrade joins one
    gather flushed in a single round before the map unlocks. *)

val destroy : Vmstate.t -> Sim.Sched.thread -> t -> unit

val simplify : t -> unit
(** Merge adjacent entries that continue each other (vm_map_simplify);
    call with the map lock held.  Also invoked internally after
    protect/deallocate. *)

val entry_count : t -> int

val clip_range : t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> unit
(** Split entries so [lo, hi) falls on entry boundaries (map lock held). *)

val entries_in : t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> entry list
val deallocate_object : Vmstate.t -> Vm_object.t -> unit
(** Drop a reference (VM lock held); frees pages at zero. *)
