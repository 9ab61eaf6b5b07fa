(** As-of database snapshots (paper §5).

    An as-of snapshot presents a transactionally consistent, read-only view
    of the database as of an arbitrary wall-clock time within the retention
    period.  Creation translates the time to a SplitLSN, forces a checkpoint
    so every page image at or before the split is durable, and runs a
    bounded analysis pass to find the transactions in flight at the split.
    The redo pass needs no page I/O at all (everything relevant was just
    flushed), so the snapshot opens as soon as analysis completes; the
    logical undo of in-flight transactions then runs "in the background"
    (here: immediately after open, with its simulated time accounted
    separately, matching how the paper reports creation time).

    Page reads follow §5.3: serve from the sparse side file if present,
    otherwise read the current page from the primary database, rewind it
    through {!materialize_batch}'s pipeline as a batch of one (what
    {!Page_undo.prepare_page_as_of} computes), cache the result in the
    sparse file, and return it.  Previous versions are therefore produced only for
    pages a query actually touches. *)

type t

type rewind_cost = {
  rc_page : Rw_storage.Page_id.t;
  rc_ops : int;  (** row operations undone to rewind this page *)
  rc_log_reads : int;  (** log records read for this page's chain *)
  rc_fpi : bool;  (** whether a full-page-image jump-start was used *)
}
(** Cost of one on-demand page rewind, recorded per materialised page so a
    caller can attribute exact work to one query (see [EXPLAIN] in
    docs/OBSERVABILITY.md): bracket the query with {!rewind_count} and
    {!side_file_hits}, then take the new head of {!rewinds}. *)

val create :
  wall_us:float ->
  log:Rw_wal.Log_manager.t ->
  primary_pool:Rw_buffer.Buffer_pool.t ->
  primary_disk:Rw_storage.Disk.t ->
  txns:Rw_txn.Txn_manager.t ->
  clock:Rw_storage.Sim_clock.t ->
  media:Rw_storage.Media.t ->
  ?shared:Prepared_cache.t ->
  unit ->
  t
(** Raises {!Split_lsn.Out_of_retention} when [wall_us] precedes the
    retained log.

    When [shared] is given, page rewinds consult and feed the shared
    prepared-page cache: an exact image for this snapshot's SplitLSN skips
    the chain walk entirely, a newer image is delta-rewound over only the
    intervening chain records, and every freshly rewound page is published
    back (before any loser undo mutates the side-file copy, so the cache
    only ever holds pure rewind results). *)

val split_lsn : t -> Rw_storage.Lsn.t

val pool : t -> Rw_buffer.Buffer_pool.t
(** The snapshot's buffer pool; reads through it follow the §5.3 protocol.
    Access methods and the catalog run against this pool unchanged — the
    snapshot is transparent to everything above the file layer. *)

val creation_time_us : t -> float
(** Simulated time from creation start to snapshot open (split search +
    forced checkpoint + analysis; no redo page I/O). *)

val undo_time_us : t -> float
(** Simulated time of the in-flight-transaction undo pass. *)

val in_flight_txns : t -> int
(** Transactions that were active at the split and were rolled back in the
    snapshot view. *)

val undo_ops : t -> int
(** Log records undone for in-flight transactions at creation.  (test
    support: the loser-undo tests check it.) *)

val materialize_batch : t -> Rw_storage.Page_id.t list -> int
(** Rewind the given pages into the sparse file as one
    [Rw_pool.Page_batch]: the coordinator gathers each page's primary
    image and chain records in ascending page order, workers apply the
    undo chains to private page images, and the coordinator publishes
    probes, rewind tallies, prepared-cache inserts and side-file writes
    in ascending page order, so any pool fan-out gives the same pages
    and counters.  Pages already materialised are skipped; returns the
    number of pages actually rewound.  Warming is semantically
    transparent — subsequent reads return exactly what the §5.3 protocol
    would. *)

val pages_materialised : t -> int
(** Pages currently cached in the sparse file. *)

val materialized_page_ids : t -> Rw_storage.Page_id.t list
(** Ids of the pages currently materialised in the sparse side file. *)

val page_string : t -> Rw_storage.Page_id.t -> string
(** Canonical image of the page in this snapshot's view, materialising it
    through the §5.3 protocol if needed: the logical header fields plus
    every slot's row, excluding physical-layout artifacts ([data_low],
    [garbage], row placement, flush-time checksum) that unlogged
    slotted-page compaction makes path-dependent.  Two snapshots at the
    same SplitLSN must return identical strings for every page — the E8
    self-check and the interleaving tests compare exactly this. *)

val drop : t -> unit
(** Release the sparse side file (and the [snapshot.live] gauge slot). *)

(** {1 Rewind cost accounting} *)

val side_file_hits : t -> int
(** Snapshot reads served from the sparse side file since creation. *)

val rewind_count : t -> int
(** Pages rewound (on demand or batched) since creation.  Monotonic;
    equals [List.length (rewinds t)]. *)

val rewinds : t -> rewind_cost list
(** Per-page rewind costs, newest first.  The first
    [rewind_count t - before] elements are the pages rewound since a
    caller sampled [before = rewind_count t]. *)
