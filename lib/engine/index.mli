(** Secondary indexes: posting-list B-trees.

    The paper's recovery scenario recreates a dropped table "with all its
    dependent objects (indexes, constraints)"; this module supplies the
    indexes.  An index entry maps a 48-bit hash of the column value to
    bucketed posting lists of primary keys, stored as ordinary B-tree rows —
    so indexes are logged, crash-recovered, and rewound by as-of snapshots
    exactly like base data, with zero index-specific code anywhere in the
    storage engine (the paper's §7.2 argument).

    Hash collisions are benign: readers re-verify fetched rows against the
    predicate. *)

val add :
  Rw_access.Access_ctx.t ->
  Rw_access.Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  Rw_catalog.Schema.index ->
  value:Row.value ->
  pk:int64 ->
  unit

val remove :
  Rw_access.Access_ctx.t ->
  Rw_access.Alloc_map.t ->
  Rw_txn.Txn_manager.txn ->
  Rw_catalog.Schema.index ->
  value:Row.value ->
  pk:int64 ->
  unit
(** Raises [Not_found] if the (value, pk) entry is absent — index
    corruption. *)

val lookup :
  Rw_access.Access_ctx.t -> Rw_catalog.Schema.index -> value:Row.value -> int64 list
(** Candidate primary keys (callers re-verify the predicate). *)

val entry_count : Rw_access.Access_ctx.t -> Rw_catalog.Schema.index -> int
(** Total postings in the index.  (test support: the index consistency
    checks.) *)
