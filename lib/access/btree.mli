(** B-trees with ARIES-style physiological logging.

    The root page is fixed for the life of the tree (a root split grows the
    tree downward), so catalog entries never need rewriting.  Structure
    modifications move rows between pages as logged inserts {e and deletes
    that carry the row image} — the paper's §4.2 extension that makes page
    splits undoable page-by-page.  There is no merge/rebalance on delete;
    pages are reclaimed when the whole tree is dropped, which is the path
    the paper's DROP TABLE recovery scenario exercises. *)

type t

exception Duplicate_key of int64

val max_payload : int
(** Upper bound on payload size; guarantees split progress.  (test support:
    the tests probe inserts at and past the bound.) *)

val create : Access_ctx.t -> Alloc_map.t -> Rw_txn.Txn_manager.txn -> t
(** Allocate an empty tree (its root leaf). *)

val of_root : Rw_storage.Page_id.t -> t
(** Handle for an existing tree (root from the catalog). *)

val root : t -> Rw_storage.Page_id.t

val insert :
  Access_ctx.t ->
  Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  t ->
  key:int64 ->
  payload:string ->
  unit
(** Raises {!Duplicate_key}. *)

val update :
  Access_ctx.t ->
  Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  t ->
  key:int64 ->
  payload:string ->
  unit
(** Replace a payload in place.  Raises [Not_found]. *)

val delete : Access_ctx.t -> Rw_txn.Txn_manager.txn -> t -> key:int64 -> unit
(** Raises [Not_found]. *)

val find : Access_ctx.t -> t -> int64 -> string option

val range :
  Access_ctx.t -> t -> lo:int64 -> hi:int64 -> f:(int64 -> string -> unit) -> unit
(** In-order visit of all (key, payload) with lo <= key <= hi. *)

val iter : Access_ctx.t -> t -> f:(int64 -> string -> unit) -> unit

(** {2 Inspection (test support)}

    The tests compare tree contents, shape and pages against their
    oracles through these and {!check}. *)

val to_list : Access_ctx.t -> t -> (int64 * string) list
val count : Access_ctx.t -> t -> int
val height : Access_ctx.t -> t -> int

val pages : Access_ctx.t -> t -> Rw_storage.Page_id.t list
(** Every page of the tree, root included. *)

val drop : Access_ctx.t -> Alloc_map.t -> Rw_txn.Txn_manager.txn -> t -> unit
(** Free every page of the tree in the allocation map.  Data pages are not
    touched (cheap drop; see {!Alloc_map}). *)

val check : Access_ctx.t -> t -> unit
(** Validate structural invariants (key order, separator correctness,
    sibling links, levels); raises [Failure] on violation.  (test support:
    the checker the access tests run after every mutation batch.) *)
