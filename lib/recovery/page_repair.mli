(** Single-page repair from the transaction log.

    The log already contains everything needed to rebuild any page: the
    page's backward chain (paper §4) holds every modification since the
    page was formatted, and full-page-image records (§6.1) provide dense
    restart points.  When a checksum failure reveals a torn or rotten page,
    the engine does not need a backup — it replays the page's own chain
    forward from the newest full base record (a [Full_image] or [Format])
    and writes the result back.  This is the medium-recovery counterpart of
    the paper's thesis that the log is a first-class query structure.

    Pages whose history has been truncated past the last full base record
    are {e unrepairable}; they land in a {!Quarantine} set and subsequent
    reads fail with the typed {!Quarantined} error while the rest of the
    database keeps serving — graceful degradation rather than a crashed
    process. *)

exception Unrepairable of { page : Rw_storage.Page_id.t; reason : string }
(** The log no longer holds enough history to rebuild the page. *)

exception Quarantined of Rw_storage.Page_id.t
(** The page was previously found unrepairable; queries touching it fail
    with this error until the page is restored by other means. *)

(** The set of pages known to be damaged beyond log repair. *)
module Quarantine : sig
  type t

  val create : unit -> t
  val add : t -> Rw_storage.Page_id.t -> string -> unit
  val mem : t -> Rw_storage.Page_id.t -> bool

  val list : t -> (Rw_storage.Page_id.t * string) list
  (** Quarantined pages with the reason each repair failed, sorted by id. *)

end

val redo_record :
  Rw_storage.Page_id.t ->
  Rw_wal.Log_manager.gathered ->
  int ->
  Rw_storage.Lsn.t ->
  Rw_storage.Page.t ->
  bool
(** [redo_record pid g k lsn page] is the one redo apply step, shared by
    chain replay and log-scan redo ([Recovery.redo]): gathered record [k],
    whose LSN is [lsn], is redone onto [page] and [lsn] stamped as its page
    LSN — unless [Page.lsn page >= lsn] (the page-LSN guard: the image
    already reflects it).  The record is redone where it sits in its
    segment blob, with {!Rw_wal.Log_record.redo_in_place} (no decode, no
    payload copy); its CRC was checked where its bytes entered the log.
    Returns whether it applied.  Pure over its arguments, so workers may
    call it on disjoint pages. *)

val chain_suffix :
  log:Rw_wal.Log_manager.t ->
  Rw_storage.Page_id.t ->
  from:Rw_storage.Lsn.t ->
  down_to:Rw_storage.Lsn.t ->
  no_base:(Rw_storage.Lsn.t -> unit) ->
  Rw_wal.Log_manager.located
(** [chain_suffix ~log pid ~from ~down_to ~no_base] is what a replay of
    the page's chain records in [(down_to, from]] applies, ascending and
    located: from the newest base record ([Full_image] or [Format]) when
    the range holds one, else from its oldest record, after passing that
    record's LSN to [no_base] (which may raise to refuse).  Only record
    headers are peeked, each at its position; nothing is charged.  Every
    chain replay starts here: {!rebuild}
    (page repair, scrub, failover rejoin) fetches it as a batch of one,
    instant restart fetches a whole pass's suffixes in one
    {!Rw_wal.Log_manager.gather_batch}. *)

val located :
  log:Rw_wal.Log_manager.t ->
  Rw_wal.Log_manager.located ->
  Rw_wal.Log_manager.gathered option ->
  Rw_wal.Log_manager.gathered
(** [located ~log suffix g] is [g]'s records, [suffix]'s entry of a
    {!Rw_wal.Log_manager.gather_batch}; for [None], it raises what
    peeking [suffix]'s records raises
    ({!Rw_wal.Log_manager.Log_truncated} or
    {!Rw_wal.Log_manager.No_such_record}). *)

val redo_chain :
  Rw_storage.Page_id.t ->
  Rw_wal.Log_manager.located ->
  Rw_wal.Log_manager.gathered ->
  Rw_storage.Page.t ->
  int
(** [redo_chain pid suffix g page] redoes [suffix]'s gathered records
    onto [page] in place, in LSN order, with {!redo_record}: records at or
    below the page LSN are skipped, so the replay is idempotent.  Returns
    the operations applied.  Pure over its arguments, so workers may call
    it on disjoint pages. *)

val rebuild : log:Rw_wal.Log_manager.t -> Rw_storage.Page_id.t -> Rw_storage.Page.t
(** Rebuild the page's current content purely from the log: locate the
    newest full base record in the page's chain ([Full_image] or [Format];
    if none is retained the chain must reach back to the page's genesis),
    then replay the chain forward to the end of the log, stamping each
    record's LSN.  In-flight (loser) operations are replayed too — exactly
    what redo would have produced — so a subsequent undo pass compensates
    them as usual.  Raises {!Unrepairable} when the retained chain has no
    base and does not start at genesis. *)

val repair_to_disk :
  log:Rw_wal.Log_manager.t ->
  disk:Rw_storage.Disk.t ->
  wal_flush:(Rw_storage.Lsn.t -> unit) ->
  Rw_storage.Page_id.t ->
  Rw_storage.Page.t
(** {!rebuild} the page, then seal and write it back to the disk (honouring
    the WAL rule via [wal_flush] first) and count it in the disk's
    [pages_repaired] statistic.  Returns the repaired page. *)

val source :
  disk:Rw_storage.Disk.t ->
  log:Rw_wal.Log_manager.t ->
  wal_flush:(Rw_storage.Lsn.t -> unit) ->
  quarantine:Quarantine.t ->
  unit ->
  Rw_buffer.Buffer_pool.source
(** A self-healing page source for the buffer pool: like
    [Buffer_pool.of_disk] (retrying reads/writes, checksum verification on
    every fetch) but a verification failure triggers {!repair_to_disk}
    transparently instead of failing the read.  Unrepairable pages are
    added to [quarantine] and the read raises {!Quarantined}; reads of
    already-quarantined pages fail the same way without touching the
    device. *)
