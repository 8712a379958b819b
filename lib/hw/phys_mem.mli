(** Physical memory: a word-addressable store plus a frame allocator.
    Real data lives here so the consistency tester can observe genuinely
    stale TLB entries.  A frame's storage is allocated on its first write,
    so [create] costs no page-store zeroing; a never-written frame reads
    as zeros. *)

type t

val create : frames:int -> t
val frames : t -> int
val free_frames : t -> int

exception Out_of_memory

val alloc_frame : t -> Addr.pfn
(** Frames come out lowest first; a freed frame is the next one handed out.
    @raise Out_of_memory when no frame is free. *)

val free_frame : t -> Addr.pfn -> unit
(** @raise Invalid_argument on a bad frame or when every frame is free. *)

(** [read], [write], [zero_frame] and [copy_frame] raise
    [Invalid_argument "Phys_mem: bad frame"] when [pfn < 0] or
    [pfn >= frames t], and [read]/[write] raise
    [Invalid_argument "Phys_mem: bad offset"] on a byte offset outside the
    page. *)

val read : t -> pfn:Addr.pfn -> offset:int -> int
val write : t -> pfn:Addr.pfn -> offset:int -> int -> unit
val zero_frame : t -> Addr.pfn -> unit
val copy_frame : t -> src:Addr.pfn -> dst:Addr.pfn -> unit
