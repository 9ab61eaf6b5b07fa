(** A replica engine: a byte-identical copy of the primary, kept current by
    continuous redo over the shipped log.

    The replica's transaction log is a strict prefix copy of the primary's
    stream — same bytes, same LSNs.  Catch-up is the paper's machinery run
    continuously: each shipped unit is appended to the local log
    ({!Rw_wal.Log_manager.ingest_entries}) and replayed onto the local
    pages ({!Rw_recovery.Recovery.redo_range}).  Nothing is ever appended
    locally — no CLRs, no checkpoints — so any prefix of the replica
    equals the primary at that LSN, and as-of queries over the local log
    return exactly what the primary would return.

    {b Recovery checkpoint.}  When a shipment carries one of the primary's
    checkpoint records, the replica flushes its redone pages and advances
    its {e master record} to that checkpoint.  A crashed replica restarts
    with {!crash_and_reopen} (redo-only recovery): analysis resumes from
    the persisted master record, not from the start of history — bounded
    catch-up cost, per-replica recovery points.

    {b Stale horizon.}  Reads are served locally at the replica's applied
    horizon.  Asking for a time the replica has not yet applied raises the
    typed {!Stale_horizon} instead of returning an answer that a lagging
    copy cannot yet prove — graceful degradation, never wrong data. *)

exception Stale_horizon of { requested_us : float; applied_us : float }

type t

val of_primary : name:string -> Rw_engine.Database.t -> t
(** Seed a replica from the primary's current state (checkpointed full
    image through a temp file — the initial base backup) sharing the
    primary's clock and media models. *)

val of_db : name:string -> Rw_engine.Database.t -> t
(** Wrap an existing engine as a replica (a demoted primary rejoining
    after failover).  The applied horizon is recomputed from the log. *)

val db : t -> Rw_engine.Database.t
val name : t -> string

val next_lsn : t -> Rw_storage.Lsn.t
(** The resume point: first LSN not yet ingested (= the local end of
    log).  This is the value the shipper exports from and the retention
    floor pins on the primary. *)

val applied_wall_us : t -> float
(** The applied horizon: the newest commit/checkpoint wall-clock time
    redone locally.  As-of queries at or before this are exact. *)

val ingest : t -> Rw_wal.Log_manager.export -> int
(** Apply one shipped unit: append its records to the local log (duplicate
    deliveries skip idempotently), redo exactly the new range onto local
    pages, advance the applied horizon, and — if the shipment carried a
    primary checkpoint — flush redone pages and advance the local master
    record (the recovery checkpoint).  Returns operations redone. *)

val query_as_of : ?shared:bool -> t -> name:string -> wall_us:float -> Rw_engine.Database.t
(** A local read-only as-of view, byte-equal to the primary's view at the
    same time.  Raises {!Stale_horizon} when [wall_us] is past the applied
    horizon. *)

val crash_and_reopen : t -> unit
(** Kill and restart the replica: volatile state is lost, redo-only
    recovery resumes from the persisted recovery checkpoint, and catch-up
    continues from the old end of log (the handle is updated in place;
    {!db} returns the reopened engine). *)
