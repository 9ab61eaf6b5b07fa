(** Heap files: unordered rows addressed by RID (page, slot).

    Included because the paper stresses that page-level undo works for every
    on-disk structure — "B-Trees, heaps, column stores, off-row storage use
    data pages as the unit of allocation and logging" (§7.2) — without
    structure-specific code.  Pages are chained; the first page's [special]
    header field tracks the tail for O(1) appends. *)

type t

type rid = { page : Rw_storage.Page_id.t; slot : int }

val create : Access_ctx.t -> Alloc_map.t -> Rw_txn.Txn_manager.txn -> t
val of_first : Rw_storage.Page_id.t -> t
val first : t -> Rw_storage.Page_id.t

val insert :
  Access_ctx.t -> Alloc_map.t -> Rw_txn.Txn_manager.txn -> t -> string -> rid
(** Append a row, extending the chain when the tail page is full. *)

val get : Access_ctx.t -> t -> rid -> string
(** Raises [Not_found] for a dead slot.  (test support: the engine reads
    heap rows through {!iter}; the tests read single RIDs.) *)

val delete : Access_ctx.t -> Rw_txn.Txn_manager.txn -> t -> rid -> unit
(** Tombstones the slot (replaces the row with an empty marker) so later
    RIDs remain stable. *)

val update : Access_ctx.t -> Rw_txn.Txn_manager.txn -> t -> rid -> string -> unit
(** In-place update.  Raises {!Rw_storage.Slotted_page.Page_full} if the new
    row does not fit on its page. *)

val iter : Access_ctx.t -> t -> f:(rid -> string -> unit) -> unit
(** Visit live rows in physical order. *)

val count : Access_ctx.t -> t -> int
val pages : Access_ctx.t -> t -> Rw_storage.Page_id.t list
(** (test support: [count] and [pages] let the tests check the chain
    against their row oracle.) *)

val drop : Access_ctx.t -> Alloc_map.t -> Rw_txn.Txn_manager.txn -> t -> unit
