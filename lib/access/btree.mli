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
(** The payload at the key, copied out of the leaf: {!find_with}. *)

val find_with :
  Access_ctx.t ->
  t ->
  int64 ->
  f:(Rw_storage.Page.t -> pos:int -> len:int -> 'a) ->
  'a option
(** [f] on the payload at the key, in place on the leaf page under its
    shared latch (see {!Rw_storage.Slotted_page.payload_pos}): the pages
    and charges of {!find}, without the copy.  [None] when the key is
    absent. *)

val range :
  Access_ctx.t ->
  t ->
  lo:int64 ->
  hi:int64 ->
  row:(int64 -> Rw_storage.Page.t -> pos:int -> len:int -> 'a) ->
  f:('a -> unit) ->
  unit
(** In-order visit of every key with lo <= key <= hi: [row] runs on the
    key and its payload in place, under the leaf's shared latch, and [f]
    on what [row] returned, once that latch is released, so [f] may read
    pages itself. *)

val iter : Access_ctx.t -> t -> f:(int64 -> string -> unit) -> unit
(** In-order visit of every (key, payload): {!iter_leaves} with
    {!leaf_rows} as the leaf step. *)

val iter_leaves :
  ?seen:(Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit) ->
  Access_ctx.t ->
  t ->
  leaf:(Rw_storage.Page_id.t -> Rw_storage.Page.t -> 'a) ->
  f:('a -> unit) ->
  unit
(** The leaf chain left to right, reached by descending to the leftmost
    leaf: [leaf] runs on each leaf page under its shared latch, and [f] on
    what it returned once the latch is released.  Every page is read
    through {!Access_ctx.read}, so the walk is charged and pinned the same
    whatever [leaf] does.  [seen] runs on every page read, descent
    included, in read order and under the same latch. *)

val leaf_rows : Rw_storage.Page.t -> (int64 * string) list
(** A leaf page's (key, payload) rows in key order. *)

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
