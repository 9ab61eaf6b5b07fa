(** Allocation maps.

    One row per database page, stored — like all metadata — in ordinary
    slotted pages whose updates are logged row operations, so the same
    physical undo rewinds allocation state (paper §3).

    Each row carries two flags: {e allocated} and {e ever_allocated}.  The
    latter is the paper's §4.2 refinement: the {e first} allocation of a page
    needs no preformat record (there is no prior content worth preserving),
    while {e re}-allocation logs a preformat record carrying the prior page
    image, linking the page's new log chain to its previous incarnation.
    De-allocation itself logs nothing on the data page, keeping DROP TABLE
    cheap — the cost is deferred to re-allocation. *)

type t

val init : Access_ctx.t -> Rw_txn.Txn_manager.txn -> unit
(** Format the first map page (database creation). *)

val open_ : Access_ctx.t -> t
(** Build the in-memory free list by scanning the map chain. *)

val empty_handle : unit -> t
(** A handle with no reusable pages; for read-only views that never
    allocate (scanning the map would needlessly materialise snapshot
    pages). *)

val allocate :
  t ->
  Access_ctx.t ->
  Rw_txn.Txn_manager.txn ->
  typ:Rw_storage.Page.page_type ->
  level:int ->
  Rw_storage.Page_id.t
(** Allocate and format a page.  Prefers re-usable pages (logging preformat
    then format); otherwise extends the database with a fresh page (format
    only).  A re-used page stays in the handle's list until a later
    allocation finds its map row allocated after the re-allocating
    transaction has ended, so a re-allocation that rolls back is re-used
    too, also when other allocations ran while it was in flight. *)

val free : t -> Access_ctx.t -> Rw_txn.Txn_manager.txn -> Rw_storage.Page_id.t -> unit
(** Mark a page de-allocated.  Touches only the map, never the data page. *)

(** {2 Inspection (test support)}

    No engine path reads the map this way; the tests check allocation,
    free-list reuse and map growth through these. *)

val is_allocated : Access_ctx.t -> Rw_storage.Page_id.t -> bool
val ever_allocated : Access_ctx.t -> Rw_storage.Page_id.t -> bool
val allocated_pages : Access_ctx.t -> Rw_storage.Page_id.t list
val free_count : t -> int
(** Entries in the handle's free list; one whose page was re-allocated is
    dropped by the first allocation after the re-allocating transaction
    ended. *)
