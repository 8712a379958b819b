(** Two-level page tables in the style of the NS32382 MMU.  Second-level
    tables are allocated lazily in 1024-page chunks; a missing chunk
    proves those pages unmapped — the residual lazy evaluation of paper
    section 7.2.  Within a chunk, a page's record is made when the page
    is first set; until then it reads as {!no_pte}. *)

type pte = {
  mutable valid : bool;
  mutable pfn : Addr.pfn;
  mutable prot : Addr.prot;
  mutable wired : bool;
  mutable referenced : bool; (** set by the MMU's ref/mod writeback *)
  mutable modified : bool;
}

val invalid_pte : unit -> pte

val no_pte : pte
(** The shared, permanently-invalid PTE returned by {!find} for unmapped
    pages.  Read-only: callers must check [valid] before mutating a PTE
    obtained from {!find}. *)

type t

val create : unit -> t
val valid_count : t -> int
val l2_table_count : t -> int

val find : t -> Addr.vpn -> pte
(** Single-probe walk with no allocation: the PTE for [vpn], or the
    shared invalid {!no_pte} when the covering chunk is absent. *)

val lookup : t -> Addr.vpn -> pte option
(** The valid entry for [vpn]; allocation-free on the miss path. *)

val set : t -> Addr.vpn -> pfn:Addr.pfn -> prot:Addr.prot -> wired:bool -> pte
(** Install or replace a mapping; clears the reference/modify bits.  A
    page's record is made by its first [set] and kept for the table's
    life: a later [set], after a {!clear} or not, returns the same
    record. *)

val clear : t -> Addr.vpn -> pte option
(** Invalidate a mapping; returns the old entry if one was valid. *)

val iter_valid_range : t -> lo:Addr.vpn -> hi:Addr.vpn -> (Addr.vpn -> pte -> unit) -> unit
(** Visit valid entries of [lo, hi), skipping absent 1024-page chunks. *)

val count_valid_range : t -> lo:Addr.vpn -> hi:Addr.vpn -> int

val any_valid_in_range : t -> lo:Addr.vpn -> hi:Addr.vpn -> bool
(** The full lazy-evaluation check. *)

val any_chunk_in_range : t -> lo:Addr.vpn -> hi:Addr.vpn -> bool
(** The reduced, chunk-structure-only check. *)

val pages_examined : t -> lo:Addr.vpn -> hi:Addr.vpn -> int
(** Pages a per-page scan must actually look at (absent chunks skipped). *)

val destroy : t -> unit
(** Drop every second-level table. *)
