(** A database: disk, log, buffer pool, transactions, catalog — plus the
    paper's additions: as-of snapshots, retention, and crash simulation.

    A [t] is either a primary (read-write) database or a read-only view
    (an as-of snapshot or a restored backup).  Snapshot views share the
    primary's log and clock but read pages through the snapshot protocol,
    so the catalog, allocation maps and user data all appear as of the
    snapshot time. *)

type t

type txn = Rw_txn.Txn_manager.txn

exception Read_only of string

val create :
  name:string ->
  clock:Rw_storage.Sim_clock.t ->
  media:Rw_storage.Media.t ->
  ?log_media:Rw_storage.Media.t ->
  ?pool_capacity:int ->
  ?log_cache_blocks:int ->
  ?log_block_bytes:int ->
  ?log_segment_bytes:int ->
  ?fpi:Rw_access.Access_ctx.fpi ->
  ?checkpoint_interval_us:float ->
  ?fault_plan:Rw_storage.Fault_plan.t ->
  unit ->
  t
(** Create and initialise a fresh database (boot page, allocation map,
    catalog), commit the initialisation and take a first checkpoint.
    [fpi] is the full-page-image policy (default
    {!Rw_access.Access_ctx.default_fpi}, an image per 8 KiB of a page's
    chain; [Every_mods n] is the paper's N, [Off] disables images);
    [checkpoint_interval_us] (default 30 simulated seconds) triggers an
    automatic checkpoint at commit when exceeded.  An optional [fault_plan] threads deterministic
    fault injection through the disk and the log (see
    {!Rw_storage.Fault_plan}); the engine detects the injected damage by
    checksum, repairs pages from the log ({!Rw_recovery.Page_repair}) and
    truncates torn log tails at recovery. *)

(* Accessors *)
val name : t -> string
val clock : t -> Rw_storage.Sim_clock.t
val now_us : t -> float
val disk : t -> Rw_storage.Disk.t
val media : t -> Rw_storage.Media.t
val log_media : t -> Rw_storage.Media.t
val log : t -> Rw_wal.Log_manager.t
val pool : t -> Rw_buffer.Buffer_pool.t
val ctx : t -> Rw_access.Access_ctx.t
val txn_manager : t -> Rw_txn.Txn_manager.t
val is_read_only : t -> bool

(* Transactions *)
val begin_txn : t -> txn
val commit : t -> txn -> unit
(** Commit through the group-commit scheduler.  Under the default
    (immediate) policy the commit record is forced durable before this
    returns; with {!set_group_commit} the transaction may be left awaiting
    acknowledgement in the current flush batch (its effects stay visible to
    subsequent reads, but only a crash can reveal the difference). *)

val rollback : t -> txn -> unit
val with_txn : t -> (txn -> 'a) -> 'a
(** Begin, run, commit; roll back and re-raise on exception. *)

val set_group_commit : t -> max_batch_bytes:int -> max_delay_us:float -> unit
(** Enable commit coalescing: flush once the unflushed log tail reaches
    [max_batch_bytes] or the oldest pending commit has waited
    [max_delay_us] of simulated time.  Both zero restores per-commit
    flushing. *)

val flush_commits : t -> int
(** Force the pending commit batch durable now; returns the number of
    commits acknowledged. *)

val pending_commits : t -> int
(** Commits awaiting durability acknowledgement. *)

(* DDL *)
val create_table :
  t ->
  txn ->
  table:string ->
  columns:Rw_catalog.Schema.column list ->
  ?kind:Rw_catalog.Schema.kind ->
  unit ->
  Rw_catalog.Schema.table
(** [kind] defaults to a B-tree table.  (test support: SQL creates B-tree
    tables only; the tests create heap tables through [kind].) *)

val drop_table : t -> txn -> string -> unit
val tables : t -> Rw_catalog.Schema.table list
val table : t -> string -> Rw_catalog.Schema.table option

(* Secondary indexes (maintained on every DML; stored as logged B-trees,
   so they crash-recover and time-travel like base data). *)
exception No_such_index of string

val create_index :
  t -> txn -> table:string -> ?name:string -> column:string -> unit -> Rw_catalog.Schema.index
(** Create and backfill an index on a non-key column of a B-tree table. *)

val drop_index : t -> txn -> table:string -> name:string -> unit

val lookup_by_index :
  t -> table:string -> column:string -> value:Row.value -> Row.value list list
(** Equality lookup through the column's index; raises {!No_such_index}
    when the column is not indexed. *)

(* DML / queries.  Rows are full typed rows, key column first. *)
val insert : t -> txn -> table:string -> Row.value list -> unit
val update : t -> txn -> table:string -> Row.value list -> unit
val delete : t -> txn -> table:string -> key:int64 -> unit
val get : t -> table:string -> key:int64 -> Row.value list option
val range : t -> table:string -> lo:int64 -> hi:int64 -> f:(Row.value list -> unit) -> unit
val scan : t -> table:string -> f:(Row.value list -> unit) -> unit
val row_count : t -> table:string -> int

(* Checkpoints, retention *)
val checkpoint : ?flush_pages:bool -> t -> Rw_storage.Lsn.t
val set_retention : t -> float option -> unit
(** [SET UNDO_INTERVAL]: retention period in simulated microseconds. *)

val retention : t -> float option
(** (test support: the tests check the interval survives save/load and
    crash-reopen.) *)

val enforce_retention : t -> Rw_storage.Lsn.t option

val add_retention_floor : t -> name:string -> (unit -> Rw_storage.Lsn.t option) -> unit
(** Install a named truncation floor: retention never reclaims log at or
    above any floor's LSN (see {!Rw_core.Retention.register_floor}).  The
    replication shipper registers each attached replica's ship horizon so
    aggressive retention cannot strand a lagging replica. *)

val remove_retention_floor : t -> name:string -> unit

(* The paper's core: as-of snapshots *)
val create_as_of_snapshot : ?shared:bool -> t -> name:string -> wall_us:float -> t
(** A read-only view of this database as of [wall_us].  Raises
    {!Rw_core.Split_lsn.Out_of_retention} if the time precedes retained
    log; raises {!Read_only} when invoked on a non-primary view.

    [shared] (default [true]) lets the snapshot read through the
    database's shared prepared-page cache, amortising chain rewinds
    across concurrent snapshots at the same or nearby SplitLSNs.  Pass
    [false] for an isolated snapshot that re-derives every page from the
    log — the oracle the E8 self-check and the interleaving tests compare
    shared snapshots against. *)

val prepared_cache : t -> Rw_core.Prepared_cache.t
(** The database's shared prepared-page cache (hit-rate introspection for
    the CLI's [\sessions] display).  Views inherit their base's cache. *)

val snapshot_handle : t -> Rw_core.As_of_snapshot.t option
(** The underlying snapshot object of a snapshot view (timings, sparse-file
    statistics). *)

val drop_view : t -> unit
(** Release a dropped view's own pages: an as-of snapshot view runs
    [Rw_core.As_of_snapshot.drop], a what-if or restored view gives back
    its pool frames (and side file).  A no-op for databases and
    copy-on-write views. *)

(* Baseline: classic copy-on-write snapshots (paper §2.2/§7.1). *)
val create_cow_snapshot : t -> name:string -> t
(** A read-only view of this database as of {e now}, maintained by
    copy-on-write interception of subsequent modifications.  Exists as the
    measured baseline the paper argues against; raises
    {!Rw_core.Cow_snapshot.Active_transactions} unless quiescent. *)

val cow_handle : t -> Rw_core.Cow_snapshot.t option

(* Persistence: dump / resume the durable state (pages + log + settings)
   as a real file, so sessions survive process restarts.  The simulated
   clock resumes from the saved wall time, keeping as-of history
   meaningful across save/load. *)
val save : t -> path:string -> unit
(** Checkpoint, then write a self-contained image.  Raises {!Read_only}
    on snapshot views. *)

val load :
  clock:Rw_storage.Sim_clock.t ->
  media:Rw_storage.Media.t ->
  ?log_media:Rw_storage.Media.t ->
  ?log_segment_bytes:int ->
  path:string ->
  unit ->
  t
(** Rebuild a database from {!save} output and run restart recovery.
    Raises [Failure] on a file that is not a rewinddb image.
    [log_segment_bytes] (test support) reloads into small segments, so a
    test can check the control directory rebuilt across many of them. *)

(* Crash simulation *)
val crash_and_reopen : ?instant:bool -> t -> t
(** Discard all volatile state (buffer pool, unflushed log) and run ARIES
    restart recovery; returns the reopened database over the same durable
    state.  The old handle must not be used afterwards.

    With [instant:true] (default false) only tail repair + analysis run
    before the database opens; backlog pages are recovered on first touch
    and by {!recovery_drain_step} (see {!Rw_recovery.Recovery.Instant} and
    DESIGN.md §12). *)

val reopen_redo_only : t -> t
(** Replica restart: like {!crash_and_reopen} but recovery is
    {!Rw_recovery.Recovery.recover_redo_only} — analysis resumes from the
    persisted master record (the replica's recovery checkpoint), redo
    replays forward, and {e nothing} is appended (no CLRs, no End records,
    no checkpoint), so the log remains a byte-identical prefix of the
    primary's stream and catch-up can resume at the old end of log.  The
    old handle must not be used afterwards. *)

val last_recovery_stats : t -> Rw_recovery.Recovery.stats option

val recovery_backlog : t -> int
(** Pages still awaiting recovery after an instant restart (0 for a fully
    recovered database or one opened with full-replay recovery). *)

val recovery_drain_step : ?max_pages:int -> t -> int
(** Recover up to [max_pages] (default 8) backlog pages; returns how many
    left the backlog.  The session manager's background sweeper calls this
    between scheduler rounds. *)

val recovery_drain_all : t -> unit
(** Drain the whole backlog.  Runs implicitly before checkpoints, retention
    enforcement and snapshot creation. *)

(* Fault injection / graceful degradation *)
val fault_plan : t -> Rw_storage.Fault_plan.t option

val quarantined_pages : t -> (Rw_storage.Page_id.t * string) list
(** Pages found unrepairable (with the reason), sorted by id.  Queries
    touching them raise [Rw_recovery.Page_repair.Quarantined]; everything
    else keeps serving. *)

val scrub : t -> int
(** Read every written page through the self-healing pool, repairing any
    residual damage from the log (unrepairable pages are quarantined, not
    raised).  Returns the number of pages repaired. *)

(* Internal: assemble a read-only view over an arbitrary buffer pool.
   Exposed for Backup and what-if views; [on_drop] is what {!drop_view}
   runs. *)
val view_over_pool :
  name:string ->
  base:t ->
  pool:Rw_buffer.Buffer_pool.t ->
  snapshot:Rw_core.As_of_snapshot.t option ->
  on_drop:(unit -> unit) ->
  t
