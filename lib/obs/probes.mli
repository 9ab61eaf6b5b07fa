(** The engine's metric instruments, registered eagerly in one place.

    Every counter/gauge/histogram the engine updates lives here, in the
    process-wide {!Metrics} registry.  Centralising them (instead of
    registering at the top of each instrumented module) keeps the
    registry's name set independent of which modules a given executable
    happens to link: OCaml only links archive modules that are
    referenced, so scattered registration would make [Metrics.names]
    vary per binary.

    docs/OBSERVABILITY.md documents each metric; a test diffs that
    document against [Metrics.names ()] so the two cannot drift. *)

(** {1 WAL} *)

val log_appends : Metrics.counter
val log_append_bytes : Metrics.counter
val flush_batch_bytes : Metrics.histogram
val log_resident_bytes : Metrics.gauge
val log_segments_sealed : Metrics.counter
val log_segments_spilled : Metrics.counter
val log_segments_loaded : Metrics.counter
val log_segments_dropped : Metrics.counter

(** {1 Transactions} *)

val commits : Metrics.counter
val commit_latency_us : Metrics.histogram

(** {1 Buffer pool} *)

val fetch_hits : Metrics.counter
val fetch_misses : Metrics.counter
val evictions : Metrics.counter
val writebacks : Metrics.counter

(** {1 Catalog} *)

val catalog_walks : Metrics.counter

(** {1 Page rewind (as-of reads)} *)

val page_rewinds : Metrics.counter
val ops_undone : Metrics.counter
val chain_length : Metrics.histogram
val walk_fallbacks : Metrics.counter

(** {1 Restart recovery} *)

val recovery_runs : Metrics.counter
val recovery_redone : Metrics.counter
val recovery_undone : Metrics.counter
val recovery_pages_on_demand : Metrics.counter
val recovery_redo_partitions : Metrics.counter
val recovery_backlog : Metrics.gauge

(** {1 Shared domain pool} *)

val pool_tasks : Metrics.counter
val pool_wakes : Metrics.counter

(** {1 As-of snapshots} *)

val snapshot_creates : Metrics.counter
val snapshot_pages_materialized : Metrics.counter
val snapshot_side_hits : Metrics.counter
val snapshots_live : Metrics.gauge
val snapshot_loser_scans : Metrics.counter
val snapshot_shared_hits : Metrics.counter
val snapshot_parallel_pages : Metrics.counter
val snapshot_shared_misses : Metrics.counter

(** {1 Sessions} *)

val sessions_live : Metrics.gauge

(** {1 What-if (selective transaction undo)} *)

val whatif_graph_builds : Metrics.counter
val whatif_graph_edges : Metrics.counter
val whatif_rewinds : Metrics.counter
val whatif_pages_rewound : Metrics.counter
val whatif_ops_replayed : Metrics.counter
val whatif_conflicts : Metrics.counter

(** {1 Replication} *)

val repl_segments_shipped : Metrics.counter
val repl_bytes_shipped : Metrics.counter
val repl_lag_segments : Metrics.gauge
val repl_retries : Metrics.counter
val repl_failovers : Metrics.counter
