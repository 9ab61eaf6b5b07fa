(** The metadata catalog.

    Table descriptors live as rows of a system B-tree (keyed by table id)
    whose root is registered on the boot page.  Because the catalog is
    ordinary logged data, an as-of snapshot rewinds it with the very same
    page-undo mechanism as user data — this is what lets a user query the
    schema of a table that was dropped (paper §1's motivating scenario).

    Every lookup goes through a handle's record of its last catalog walk:
    every page the walk read, in read order, with its page LSN, under the
    log's {!Rw_wal.Log_manager.invalidation_epoch}, and the descriptors
    it found, by id and by name.  While the epoch matches and every
    recorded page is resident in the context's pool at its recorded LSN
    (checked by {!Rw_access.Access_ctx.resident_at}, which charges
    nothing), a lookup answers from the record and reads no page: no
    modeled time, pin or pool hit, as an in-memory metadata cache would.
    Otherwise it walks as an uncached lookup does — the boot page, the
    leftmost descent, the leaf chain, each through
    {!Rw_access.Access_ctx.read}, so it is charged exactly that walk —
    and records again; a leaf whose LSN is unchanged keeps its decoded
    rows.  The check is enough because, within one context, a page LSN
    names the page's logged content: DDL, rollback CLRs, [REWIND
    TRANSACTION], replica redo and restart redo all log a record and move
    the LSN, while crashes, failover cuts and truncation, which recycle
    LSNs, bump the epoch.  Views over another pool (as-of, copy-on-write,
    what-if) open their own handle on their own context, after any loser
    undo has finished.  A {!find} of the name the handle's previous
    {!find} asked for, answered from the same walk record (the same
    physical value), returns the previous answer without hashing the
    name; a new walk record always misses. *)

exception Table_exists of string
exception No_such_table of string

type t
(** A catalog handle: one access context and the record of its last
    walk.  Open one per context. *)

val open_ : Rw_access.Access_ctx.t -> t
(** A handle with no record yet; reads nothing.  The record holds while
    the pool neither loses nor modifies a frame
    ({!Rw_buffer.Buffer_pool.changes}): a lookup compares that count
    instead of peeking at every recorded page, and peeks only once it has
    moved. *)

val init : t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn -> unit
(** Create the catalog B-tree and counters (database creation). *)

val create_table :
  t ->
  Rw_access.Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  name:string ->
  kind:Schema.kind ->
  columns:Schema.column list ->
  Schema.table
(** Allocate the table's storage and record it.  Raises {!Table_exists} or
    [Invalid_argument] on a bad schema. *)

val update_table :
  t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn -> Schema.table -> unit
(** Replace a table's descriptor (index creation/removal). *)

val drop_table : t -> Rw_access.Alloc_map.t -> Rw_txn.Txn_manager.txn -> string -> unit
(** Free the table's pages (secondary indexes included) and delete its
    descriptor.  Raises {!No_such_table}. *)

val find : t -> string -> Schema.table option
val find_by_id : t -> int -> Schema.table option
(** (test support: a point read of the catalog B-tree by table id, which
    the catalog tests check against {!find}.) *)

val list_tables : t -> Schema.table list
(** All user tables, by id. *)
