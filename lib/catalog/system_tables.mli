(** The metadata catalog.

    Table descriptors live as rows of a system B-tree (keyed by table id)
    whose root is registered on the boot page.  Because the catalog is
    ordinary logged data, an as-of snapshot rewinds it with the very same
    page-undo mechanism as user data — this is what lets a user query the
    schema of a table that was dropped (paper §1's motivating scenario). *)

exception Table_exists of string
exception No_such_table of string

val init :
  Rw_access.Access_ctx.t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn -> unit
(** Create the catalog B-tree and counters (database creation). *)

val create_table :
  Rw_access.Access_ctx.t ->
  Rw_access.Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  name:string ->
  kind:Schema.kind ->
  columns:Schema.column list ->
  Schema.table
(** Allocate the table's storage and record it.  Raises {!Table_exists} or
    [Invalid_argument] on a bad schema. *)

val update_table :
  Rw_access.Access_ctx.t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn ->
  Schema.table -> unit
(** Replace a table's descriptor (index creation/removal). *)

val drop_table :
  Rw_access.Access_ctx.t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn -> string -> unit
(** Free the table's pages (secondary indexes included) and delete its
    descriptor.  Raises {!No_such_table}. *)

val find : Rw_access.Access_ctx.t -> string -> Schema.table option
val find_by_id : Rw_access.Access_ctx.t -> int -> Schema.table option
(** (test support: a point read of the catalog B-tree by table id, which
    the catalog tests check against {!find}.) *)

val list_tables : Rw_access.Access_ctx.t -> Schema.table list
(** All user tables, by id. *)
