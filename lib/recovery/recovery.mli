(** ARIES-style checkpointing and crash recovery.

    Recovery is the substrate the paper builds on: the as-of snapshot
    machinery reuses {!analyze} (bounded at the SplitLSN) and the same
    loser-undo walk, while crash recovery proper guarantees the primary
    database the paper rewinds from is always consistent.

    Every restart — {!recover}, {!recover_redo_only} and {!Instant.open_}
    — opens with the same prologue: tail repair, analysis from the master
    checkpoint (traced as [recovery.analysis]) and a fresh {!stats}.
    {!recover} and {!recover_redo_only} then redo (traced as
    [recovery.redo]) before returning; {!Instant} opens the engine right
    after analysis and recovers pages on first touch or via a background
    drain.  Every log-scan redo — restart, replica catch-up, backup
    roll-forward — is one page-grouped loop; only its record filter
    differs.  Instant restart and page repair share the chain replay
    ({!Page_repair.chain_suffix}, {!Page_repair.redo_chain}).  Both redo
    forms take their records as
    {!Rw_wal.Log_manager.gathered} entries and apply them with
    {!Page_repair.redo_record}. *)

val checkpoint :
  log:Rw_wal.Log_manager.t ->
  pool:Rw_buffer.Buffer_pool.t ->
  txns:Rw_txn.Txn_manager.t ->
  wall_us:float ->
  ?flush_pages:bool ->
  unit ->
  Rw_storage.Lsn.t
(** Write a checkpoint record carrying the active-transaction table, the
    dirty-page table and the wall-clock time (the coarse positioning index
    for SplitLSN searches, paper §5.1); force the log; update the master
    record.  [flush_pages] additionally flushes the buffer pool first, which
    empties the recorded dirty-page table (used at snapshot creation and to
    model a target recovery interval). *)

type analysis = {
  losers : Rw_storage.Lsn.t Rw_storage.Int_tbl.t;
      (** transactions in flight at the analysis horizon (by
          {!Rw_wal.Txn_id.to_int}), with last LSN *)
  dirty_pages : Rw_storage.Lsn.t Rw_storage.Int_tbl.t;
      (** page id -> recovery LSN *)
  txn_pages : unit Rw_storage.Int_tbl.t Rw_storage.Int_tbl.t;
      (** transaction id -> the page ids it touched within the scanned
          region; empty in a restart's {!stats}, whose redo and undo need
          no page sets *)
  redo_start : Rw_storage.Lsn.t;
  max_txn_id : Rw_wal.Txn_id.t;
  records_scanned : int;
}

val analyze :
  log:Rw_wal.Log_manager.t -> start:Rw_storage.Lsn.t -> upto:Rw_storage.Lsn.t -> analysis
(** Scan forward from [start] (normally the master checkpoint; its record
    seeds the tables, decoded once up front) up to, excluding, [upto].  The scan
    is header-only (peek-based); only checkpoint records are decoded. *)

val loser_pages : analysis -> Rw_storage.Page_id.t list
(** Distinct pages touched by surviving losers within the scanned region —
    the advisory work-list for batched loser undo (pages a loser touched
    before [start] are simply absent; undo reads them individually).
    (test support: the oracle side of the {!losers_at} property test.) *)

type losers = {
  in_flight : Rw_storage.Lsn.t Rw_storage.Int_tbl.t;
      (** transactions in flight at [upto], with last LSN — {!analyze}'s
          [losers] *)
  in_flight_pages : Rw_storage.Page_id.t list;  (** {!loser_pages} of that analysis *)
  loser_scan : bool;  (** whether the analysis scan ran *)
}

val losers_at :
  log:Rw_wal.Log_manager.t -> start:Rw_storage.Lsn.t -> upto:Rw_storage.Lsn.t -> losers
(** The two analysis results as-of snapshot creation and point-in-time
    restore use, equal to {!analyze}'s for the same range, decided where
    possible from the log's control-record directory
    ({!Rw_wal.Log_manager.none_in_flight}) instead of a scan: the start
    checkpoint's active set and the Begin/Commit/Abort/End entries up to
    [upto] track the in-flight transactions, and the directory keeps that
    set's size per entry.  If none is left, the result is empty and the
    clock is charged what {!analyze} would have charged: the start
    checkpoint's read (its blocks; it is not decoded) and the sequential
    scan.
    Otherwise — a loser's last LSN and pages live in page records — or
    when the directory cannot answer exactly (a [start] that is neither a
    checkpoint nor the log's origin, a checkpoint inside the range, an
    [upto] that is not a record boundary), the analysis scan runs:
    [loser_scan] is set and the [snapshot.loser_scans] probe bumped. *)

type stats = {
  analysis : analysis;
  mutable redone_ops : int;
  mutable undone_ops : int;
  mutable ended_losers : int;
  tail_truncated : (Rw_storage.Lsn.t * int) option;
      (** where the torn-tail scan truncated the log, and how many records
          it dropped ([None] if the tail was clean) *)
  mutable analysis_us : float;  (** simulated time spent in tail repair + analysis *)
  mutable time_to_first_query_us : float;
      (** simulated time from restart until the engine could serve a query:
          the whole of recovery for {!recover}, analysis + engine open for
          {!Instant} *)
  mutable time_to_full_recovery_us : float;
      (** simulated time from restart until every page was recovered (equal
          to [time_to_first_query_us] for {!recover}; stamped when the
          instant-restart backlog drains to zero) *)
}

val recover :
  ?now_us:(unit -> float) ->
  log:Rw_wal.Log_manager.t ->
  pool:Rw_buffer.Buffer_pool.t ->
  unit ->
  stats
(** Full crash recovery on the primary database: first validate the log
    tail record-by-record and truncate at the first torn record
    ([Log_manager.repair_tail]), then analysis from the master checkpoint
    to the end of the (durable) log, redo of missing updates, and rollback
    of losers with compensation records.  The caller should take a
    checkpoint afterwards and seed its transaction-id counter above
    [stats.analysis.max_txn_id].

    Redo replays the analysis dirty-page table's records (each page from
    its recovery LSN on) grouped by page: the log scan
    ({!Rw_wal.Log_manager.gather_range}) and page fetches stay on the
    calling domain, and each batch of pages is fanned out through
    [Rw_pool.Page_batch], every page replaying its own records in LSN
    order.  Pages are disjoint and the scan is the same at
    every fan-out, so any fan-out yields byte-identical pages and the same
    log counters.  [now_us] (normally the simulated clock) stamps
    the timing fields of {!stats}. *)

val redo_range :
  log:Rw_wal.Log_manager.t ->
  pool:Rw_buffer.Buffer_pool.t ->
  from:Rw_storage.Lsn.t ->
  upto:Rw_storage.Lsn.t ->
  int
(** Replay every page record with [from <= lsn < upto] onto the pool —
    replica catch-up and backup roll-forward — through the same
    page-grouped loop as {!recover}, in one scan of the range.
    Idempotent via the page-LSN compare, so duplicate or overlapping
    shipments are harmless.  Returns operations applied. *)

val recover_redo_only :
  ?now_us:(unit -> float) ->
  log:Rw_wal.Log_manager.t ->
  pool:Rw_buffer.Buffer_pool.t ->
  unit ->
  stats
(** Replica restart: tail repair, analysis from the master record (the
    replica's persisted recovery checkpoint), and redo — traced as
    [recovery.analysis] and [recovery.redo], as in {!recover} — but {e no} loser
    undo and {e no} appended records (no CLRs, no End records, no
    checkpoint), because a replica's log must remain a byte-identical
    prefix of the primary's stream.  In-flight transactions' effects stay
    on the pages; reads go through as-of snapshots (snapshot-local loser
    undo) and the resumed catch-up stream delivers their outcomes.
    [stats.undone_ops]/[ended_losers] are always 0. *)

val undo_losers :
  log:Rw_wal.Log_manager.t ->
  losers:Rw_storage.Lsn.t Rw_storage.Int_tbl.t ->
  write_clr:bool ->
  apply:(Rw_storage.Page_id.t -> (Rw_storage.Page.t -> Rw_storage.Lsn.t option) -> unit) ->
  int
(** Walk every loser's chain newest-first, applying inverse operations via
    [apply].  [losers] maps each loser's {!Rw_wal.Txn_id.to_int} to its
    last LSN; the next record undone is always the newest of any
    loser's.  With [write_clr] the undo is logged (CLRs + End records —
    crash recovery); without, pages are patched silently (snapshot logical
    undo, which must not write to the primary log).  [apply pid f] presents
    the page; [f] returns the new page LSN to stamp, if any.  Returns the
    number of operations undone. *)

(** Instant restart: open the engine after tail repair + analysis alone and
    recover pages lazily.  {!open_} builds the backlog (analysis dirty-page
    table plus every page an in-flight transaction touched); the engine then
    wires {!touch} into its buffer-pool source so the first fetch of a
    backlog page redoes it to end-of-log and undoes its losers before the
    page is handed out, and a background sweeper calls {!drain} to retire
    the rest.  Time-to-first-query becomes O(analysis) instead of O(log). *)
module Instant : sig
  type t

  val open_ : ?now_us:(unit -> float) -> log:Rw_wal.Log_manager.t -> unit -> t
  (** Repair the log tail, run analysis, and compute the recovery backlog.
      No page is read or written; callers attach page I/O with {!attach}
      before the first {!touch} or {!drain}.  A loser that logged only its
      Begin touches no page: it ends with the group of the smallest loser
      page, or, when no loser touched a page, here, with its End record
      appended. *)

  val attach :
    t ->
    source:Rw_buffer.Buffer_pool.source ->
    wal_flush:(Rw_storage.Lsn.t -> unit) ->
    quarantine:Page_repair.Quarantine.t ->
    unit
  (** Provide the page I/O used to recover groups: [source] is the
      underlying (self-healing) disk source — its [read], [write] and, for
      runs of consecutive pages, [write_seq] — [wal_flush] honours the
      WAL rule before recovered pages are written back, and [quarantine]
      is the set [source] reports to, which a group with an unreadable
      member joins whole. *)

  val stats : t -> stats
  (** Live statistics; [redone_ops]/[undone_ops]/[ended_losers] grow as the
      backlog drains, and the timing fields are stamped by {!mark_open} and
      by whichever touch or drain empties the backlog. *)

  val backlog : t -> int
  (** Pages still awaiting recovery. *)

  val mark_open : t -> unit
  (** Stamp [time_to_first_query_us]; the engine calls this once the
      database object is fully assembled and able to serve queries. *)

  val touch : t -> Rw_storage.Page_id.t -> Rw_storage.Page.t -> Rw_storage.Page.t
  (** First-touch recovery: if the page is pending, recover its whole group
      (see DESIGN.md §12 — every in-flight transaction overlapping the
      group is undone completely before any page is published) and return
      the recovered image; otherwise return the page unchanged.  If a
      member of the group cannot be read, the whole group is quarantined
      and the touch raises {!Page_repair.Quarantined} for the page. *)

  val drain : t -> max_pages:int -> int
  (** Recover whole groups, in the order of their smallest page, until
      [max_pages] pages have left the backlog or none is left; returns how
      many left.  Each pass of at most 256 pages (more only for a larger
      group) is one [Rw_pool.Page_batch]: the pages are read, their chains
      fetched in one log-ordered gather, each page redone on the pool, and
      then, on the calling domain, the groups' losers undone, the log
      forced once and the changed pages written back in page-id order,
      runs of consecutive pages as sequential writes.  A group with a
      member that cannot be read leaves the backlog quarantined whole,
      each other member with a reason naming the damaged one, rather than
      wedging the drain.  The background sweeper and the pre-checkpoint
      barrier both use this. *)
end
