(** The write-ahead log.

    Appends are buffered in memory and become durable on {!flush} (commit
    forces a flush, as does the buffer manager before writing a dirty page —
    classic WAL).  An LSN is one plus the byte offset of the record in the
    log stream, so LSNs are dense and order equals position.

    Reads of individual records (the random accesses performed while
    rewinding a page) go through a block cache: a hit is free, a miss is a
    priced random I/O on the log device.  The number of such misses is the
    paper's "estimated number of undo log IOs" (Figure 11).  Range scans
    (recovery analysis/redo) are priced as sequential I/O.

    Every page record that reaches an apply step — a rewind's undo, a
    chain replay's or a log-scan redo's redo — is handed over in one form,
    {!gathered}: the record's span of its segment blob.  {!gather_batch}
    fetches chains (random, block-priced); {!gather_range} fetches a
    scanned range (sequentially priced).  The log keeps no decoded
    records: {!read} and the scans decode from the bytes on every call.

    {2 Where records are checked}

    Each record's CRC trailer is checked exactly once, where its bytes
    enter the process: {!restore_entries} (a saved image), {!ingest_entries}
    (a replica shipment) and {!repair_tail} (the bytes that survived a
    crash).  A record that fails there is refused before it is placed or
    indexed.  Bytes {!append} and {!append_image} encode are produced in
    process and need no check.  Readers then parse records without a CRC;
    the in-place kernels keep their structural checks.

    The log manager also maintains the full-page-image directory used to
    jump-start page undo (paper §6.1), and the retention boundary
    ({!truncate_before}) that implements [SET UNDO_INTERVAL].

    {2 Segmented storage}

    Physically the log is a sequence of fixed-size {e segments}.  The
    newest one is the active tail: appends land in its in-RAM buffer.
    When the tail reaches [segment_bytes] it is {e sealed} (immutable)
    and {e spilled}: its payload is priced as one sequential write to the
    log device and stops counting against modeled resident memory —
    reads of a spilled segment fault blocks back in through the block
    cache exactly like any other cold read.  All record-level indexes
    (the sorted record-offset array, the FPI directory, the per-page
    chain index, the control-record directory) are segment-local with merged
    views behind the query API, so retention truncation drops whole
    sealed segments in O(1) each and frees their indexes wholesale.
    With retention on, modeled resident memory is bounded by the tail
    segment plus the retained segments' index overhead, while
    {!total_appended_bytes} grows without bound. *)

type t

exception Log_truncated of Rw_storage.Lsn.t
(** Raised when reading below the retention boundary. *)

exception No_such_record of Rw_storage.Lsn.t
(** Raised when an LSN inside the retained region is not a record
    boundary (e.g. a corrupt chain pointer). *)

val create :
  clock:Rw_storage.Sim_clock.t ->
  media:Rw_storage.Media.t ->
  ?cache_blocks:int ->
  ?block_bytes:int ->
  ?segment_bytes:int ->
  ?fault_plan:Rw_storage.Fault_plan.t ->
  unit ->
  t
(** [cache_blocks] (default 128) and [block_bytes] (default 65536) size the
    log block cache, its only cache.  [segment_bytes] (default 1 MiB,
    minimum 64) is the size at which the active tail segment seals and
    spills.  When a [fault_plan] is attached, {!crash} consults it to
    decide whether the log tail tears. *)

val clock : t -> Rw_storage.Sim_clock.t
val stats : t -> Rw_storage.Io_stats.t

val append : t -> Log_record.t -> Rw_storage.Lsn.t
(** Append a record (no I/O cost until flushed) and return its LSN. *)

val append_image :
  t ->
  page:Rw_storage.Page_id.t ->
  prev_page_lsn:Rw_storage.Lsn.t ->
  Rw_storage.Page.t ->
  Rw_storage.Lsn.t
(** Append the full page image of [page] — the record {!append} would
    write for [Page_op { page; prev_page_lsn; op = Full_image _ }] —
    encoding it straight into the log's tail
    ({!Log_record.encode_image_into}), with the same indexing and write-path
    accounting. *)

val flush : t -> upto:Rw_storage.Lsn.t -> unit
(** Make all records appended so far durable if any at or below [upto] are
    not yet.  Priced as one sequential write plus a sync latency. *)

val flush_all : t -> unit
val flushed_lsn : t -> Rw_storage.Lsn.t
(** LSNs strictly below this are durable. *)

val unflushed_bytes : t -> int
(** Bytes appended but not yet flushed — the size of the next flush batch.
    The group-commit scheduler uses this for its max-batch-bytes trigger. *)

val end_lsn : t -> Rw_storage.Lsn.t
(** The LSN the next appended record will receive. *)

val first_lsn : t -> Rw_storage.Lsn.t
(** Oldest retained LSN (moves forward on truncation). *)

val read : t -> Rw_storage.Lsn.t -> Log_record.t
(** Random record read through the block cache, decoded from the record's
    bytes.  Raises {!Log_truncated} below the retention boundary and
    {!No_such_record} for an LSN that is not a record boundary — a torn
    stump {!crash} left behind included. *)

val charge_read : t -> Rw_storage.Lsn.t -> unit
(** The block charges of {!read}, with no decode: for a caller that
    prices reading a record whose content it already knows, or whose
    header ({!peek_record}) is all it needs.  Same exceptions as
    {!read}. *)

(** One page's records from a {!gather_batch} or {!gather_range}, as
    parallel arrays indexed like the page's LSNs.  Record [k]'s bytes are
    [g_blob.(k).[g_pos.(k) .. g_pos.(k)+g_len.(k)-1]], inside its segment's
    blob; they never change until a crash lets the log reuse their LSNs,
    and may be read from any domain.  Rewinds undo these records in place
    and redo replays them. *)
type gathered = private { g_blob : bytes array; g_pos : int array; g_len : int array }

type batch = {
  b_pages : gathered option array;
      (** per request; [None] when one of its records could not be located
          (truncated or unknown LSN) — the other pages are unaffected *)
  b_windows_us : float array;
      (** modeled time of each charged window (one seek plus sequential
          reads), in ascending block order *)
}

val gather_batch : t -> Rw_storage.Lsn.t array array -> batch
(** The chain fetch for a batch of pages, one ascending LSN array per
    page: a rewind's batch, or a chain replay's batch of one.  Records are
    located first and returned as their spans of the segment blob — never
    copied or decoded.  Then every block the batch needs is
    charged exactly once, in ascending order: a cached block is a hit, and
    each run of consecutive missing blocks, capped at the block-cache
    capacity, is one random read followed by sequential reads. *)

val peek_record : t -> Rw_storage.Lsn.t -> Log_record.peek
(** Header-only view of a record; no payload allocation, no I/O charge.
    Same exceptions as {!read}. *)

val mem : t -> Rw_storage.Lsn.t -> bool
val next_lsn_after : t -> Rw_storage.Lsn.t -> Rw_storage.Lsn.t
(** The LSN of the record following the given one. *)

val iter_range_peek :
  t ->
  from:Rw_storage.Lsn.t ->
  upto:Rw_storage.Lsn.t ->
  (Rw_storage.Lsn.t -> Log_record.peek -> (unit -> Log_record.t) -> unit) ->
  unit
(** In-order scan of records with [from <= lsn < upto]; priced
    sequentially, each record as it is visited.  [from] is rounded up to
    the first retained record.  The callback receives the record header
    plus a thunk that decodes the full record on demand.  Scans that
    filter on page/kind — recovery analysis — avoid decoding the records
    they skip. *)

val gather_range :
  t ->
  from:Rw_storage.Lsn.t ->
  upto:Rw_storage.Lsn.t ->
  keep:(Rw_storage.Lsn.t -> Rw_storage.Page_id.t -> bool) ->
  (Rw_storage.Page_id.t * Rw_storage.Lsn.t array * gathered) array
(** The log-scan redo fetch: {!iter_range_peek}'s scan and pricing, with
    the page records [keep lsn page] admits handed over as {!gathered}
    entries, one per page in page-id order, each with its LSNs
    ascending.  No admitted record is copied or decoded. *)

val iter_range_rev :
  t -> from:Rw_storage.Lsn.t -> upto:Rw_storage.Lsn.t -> (Rw_storage.Lsn.t -> Log_record.t -> unit) -> unit
(** {!iter_range_peek}'s range, reverse order, every record decoded as
    its thunk would decode it. *)

val charge_scan : t -> from:Rw_storage.Lsn.t -> upto:Rw_storage.Lsn.t -> unit
(** Account the sequential I/O cost of scanning a log region without
    decoding it (e.g. a restore's initialization of the unused log tail). *)

val last_checkpoint : t -> Rw_storage.Lsn.t
(** The master record: LSN of the most recent checkpoint ([Lsn.nil] if
    none). *)

val set_last_checkpoint : t -> Rw_storage.Lsn.t -> unit

val iter_checkpoints_rev : t -> (Rw_storage.Lsn.t -> float -> bool) -> unit
(** [iter_checkpoints_rev t f] calls [f lsn wall] on the retained
    checkpoint records, newest first, until [f] answers [false].  It
    reads the control-record directory: no record is read and nothing is
    charged. *)

val iter_controls :
  t ->
  from:Rw_storage.Lsn.t ->
  (Rw_storage.Lsn.t -> Log_record.kind -> Txn_id.t -> float -> bool) ->
  unit
(** The control-record directory walk.  [iter_controls t ~from f] calls
    [f lsn kind txn wall_us] on every retained Begin, Commit, Abort, End
    and Checkpoint record with [lsn >= from], ascending, until [f]
    returns [false].  [wall_us] is the record's wall-clock time for a
    commit or checkpoint and 0 otherwise.  The directory is kept at
    append time on every ingestion path and dropped with its segment;
    the walk reads no record and charges nothing — callers that stand in
    for a scan price it with {!charge_scan}. *)

val earliest_fpi_after :
  t -> Rw_storage.Page_id.t -> after:Rw_storage.Lsn.t -> Rw_storage.Lsn.t option
(** The earliest retained full-page-image record for the page with
    LSN strictly greater than [after], if any — the jump-start point for
    page undo. *)

val chain_segment :
  t ->
  Rw_storage.Page_id.t ->
  from:Rw_storage.Lsn.t ->
  down_to:Rw_storage.Lsn.t ->
  Rw_storage.Lsn.t array
(** All retained page-chain record LSNs for the page with
    [down_to < lsn <= from], ascending.  Because every page record's
    [prev_page_lsn] points at the page's previous record, this equals the
    backward pointer walk from [from] truncated at [down_to] — but is
    served from the in-memory chain index with no I/O or decode.  Callers
    that mutate state must validate the chain links (see
    {!Rw_core.Page_undo}) and fall back to the walk on mismatch. *)

val pages_changed_since : t -> since:Rw_storage.Lsn.t -> Rw_storage.Page_id.t list
(** Pages whose newest retained chain record is strictly after [since]
    (unordered) — the batch work-list for snapshot materialization. *)

val truncate_before : t -> Rw_storage.Lsn.t -> unit
(** Drop all records with LSN strictly below the argument (retention). *)

val total_appended_bytes : t -> int
(** Lifetime log volume — the paper's "log space usage" metric. *)

val retained_bytes : t -> int
val record_count : t -> int
(** (test support, like {!segment_size}: the tests check retention and
    shipping through them.) *)

val invalidation_epoch : t -> int
(** Monotone counter bumped whenever log history is invalidated:
    {!truncate_before} (history below the cut is gone, so rewinds that
    might need it can no longer be trusted) and {!crash} (the torn tail's
    LSNs will be recycled after restart).  Derived caches of rewound
    state stamp entries with the epoch at fill time and discard them
    lazily on mismatch; plain appends never bump it. *)

(** {2 Segment introspection} *)

val segment_count : t -> int
(** Live (retained) segments, the active tail included. *)

val segment_size : t -> int
(** The seal threshold ([segment_bytes] of {!create}). *)

val resident_bytes : t -> int
(** Modeled RAM held by the log: unspilled segment payload (the active
    tail) plus the per-segment index overhead of every retained segment.
    Spilled payloads count zero — their simulated home is the log device,
    and reading them back is priced through the block cache.  This is the
    quantity the [log.resident_bytes] gauge tracks; with retention on it
    plateaus while {!total_appended_bytes} keeps growing. *)

type segment_stats = {
  ss_live : int;  (** retained segments, active tail included *)
  ss_sealed : int;  (** lifetime segments sealed *)
  ss_spilled : int;  (** lifetime segments spilled to media *)
  ss_loaded : int;  (** cold block loads serving spilled segments *)
  ss_dropped : int;  (** lifetime segments dropped by retention *)
  ss_resident_bytes : int;  (** {!resident_bytes} *)
  ss_payload_bytes : int;  (** unspilled payload bytes *)
  ss_index_bytes : int;  (** modeled per-segment index overhead *)
  ss_segment_bytes : int;  (** seal threshold *)
}

val segment_stats : t -> segment_stats
(** Lifecycle counters and the resident-memory breakdown — what the
    [\log] CLI meta-command prints. *)

val crash : t -> unit
(** Simulate a crash: discard every record that was not durable.  Under a
    fault plan that tears the log tail, a random prefix of the unflushed
    records survives instead — the OS had pushed them out "by luck" — with
    the last survivor torn mid-record.  The surviving prefix never extends
    below {!flushed_lsn}, so acknowledged commits are intact either way;
    the tear is found and removed by {!repair_tail}.  Until then the torn
    stump is in no index, and no lookup ({!read}, {!peek_record},
    {!gather_batch}, {!mem}) finds it. *)

val repair_tail : t -> (Rw_storage.Lsn.t * int) option
(** Validate record CRCs forward from the last durable checkpoint and
    truncate the log at the first record that fails — the recovery scan's
    torn-tail repair, and the entry check of the bytes that survived a
    crash.  Returns [Some (lsn, dropped)] — the new end of log
    and how many records were discarded — or [None] if the tail is clean.
    Priced as a sequential scan of the validated region. *)

val dump_entries : t -> (Rw_storage.Lsn.t * string) list
(** All retained records, oldest first, in encoded form — for persisting
    the durable log to a file.  Free of simulated I/O cost (persistence is
    an offline operation). *)

val restore_entries : t -> (Rw_storage.Lsn.t * string) list -> unit
(** Rebuild a fresh log manager's state from {!dump_entries} output
    (indexes, FPI directory and control-record directory included).  Every
    restored record is considered durable.  Each record's CRC is checked
    before it is placed: {!Log_record.Corrupt_record} on the first that
    fails.  Raises [Invalid_argument] on a non-empty log. *)

(** {2 Replication}

    Log shipping works in segment-granular units: {!export_from} on the
    primary hands out the durable remainder of one segment at a time,
    {!ingest_entries} appends a shipment onto a replica's (byte-identical
    prefix) copy of the stream, and {!truncate_from} cuts a demoted
    primary's divergent tail at the failover point so it can rejoin as a
    replica. *)

type export = {
  ex_from : Rw_storage.Lsn.t;  (** LSN of the first shipped record *)
  ex_next : Rw_storage.Lsn.t;
      (** resume point: the LSN immediately after the last shipped record *)
  ex_sealed : bool;
      (** the shipment reaches the end of a sealed segment (a complete
          replication unit); [false] means a durable prefix of the active
          tail was shipped *)
  ex_entries : (Rw_storage.Lsn.t * string) list;
      (** encoded records, oldest first — {!dump_entries} form *)
}

val export_from : t -> from:Rw_storage.Lsn.t -> export option
(** The next shipping unit at or after [from]: the durable records of the
    segment containing [from] (whole sealed-segment suffix, or the durable
    prefix of the active tail).  Records at or above {!flushed_lsn} — the
    crash-time tail — never ship, so replicas replay acknowledged history
    only.  [None] when nothing durable exists at or after [from].  Priced
    as a sequential read of the exported bytes.  Raises {!Log_truncated}
    when [from] has fallen below the retention boundary (the replica must
    re-seed from a fresh snapshot). *)

val segments_behind : t -> from:Rw_storage.Lsn.t -> int
(** How many live segments hold records at or after [from] — the
    replica-lag measure behind the [repl.lag_segments] gauge (0 = caught
    up to the active tail). *)

val ingest_entries : t -> (Rw_storage.Lsn.t * string) list -> int
(** Append a shipment onto the end of this (replica) log.  Entries below
    {!end_lsn} are skipped — duplicate delivery is idempotent — and the
    first genuinely new entry must land exactly at {!end_lsn}
    ([Invalid_argument] on a gap: shipments are applied in order).  Every
    shipped record's CRC is checked first, and a shipment with any record
    that fails is refused whole with {!Log_record.Corrupt_record}, the log
    unchanged.  Into a completely fresh log, the first shipment
    establishes the origin as {!restore_entries} would.  Ingested records are immediately durable
    (priced as one sequential log write); the master record is {e not}
    advanced — the replica moves its recovery checkpoint explicitly via
    {!set_last_checkpoint} after flushing redone pages.  Returns the
    number of records actually appended. *)

val truncate_from : t -> Rw_storage.Lsn.t -> int
(** Drop every record with start LSN at or above the argument — the
    inverse of {!truncate_before}, used when a demoted primary rejoins:
    its unshipped tail past the failover point is discarded before
    committed-only replay of the new primary's stream.  Bumps
    {!invalidation_epoch} (the cut LSNs will be recycled).  Returns the
    number of records dropped. *)

(** {2 Transaction write-set summaries}

    The log manager keeps a per-transaction summary index from the same
    header peek that feeds the page-chain index: which pages each
    transaction wrote (with the LSN of its first write to each), how many
    page operations it logged, whether it committed and when.  What-if
    dependency graphs ([Rw_whatif.Dep_graph]) are built from these
    summaries in O(live transactions) with no log scan and no payload
    decode.

    The index is exact through every log mutation, like the segment
    directories: every ingestion path (append, restore, replication
    ingest) indexes each record, and every tail drop ({!crash},
    {!repair_tail}, {!truncate_from}) unindexes each dropped record once,
    as the exact reversal of indexing it.  One boundary rule holds on
    every path: only a transaction's first record (nil backward pointer)
    opens a summary, and retention truncation drops the summaries whose
    first record fell below the boundary.  A transaction whose history
    crosses the retention boundary therefore has no summary, rather than
    one with an understated write set.  The index is unmodeled metadata:
    it has no simulated-RAM footprint. *)

type txn_summary = {
  ts_txn : Txn_id.t;
  ts_first_lsn : Rw_storage.Lsn.t;  (** the transaction's first record *)
  ts_commit_lsn : Rw_storage.Lsn.t;
      (** its commit record, whose backward pointer starts the walk over
          its operations *)
  ts_commit_wall_us : float;
  ts_ops : int;  (** page operations logged, CLRs included *)
  ts_has_clr : bool;
      (** wrote compensation records (partial rollback) *)
  ts_structural : bool;
      (** logged a structural operation (format/preformat/header/FPI) —
          not replayable by the key-aware engine *)
  ts_writes : (Rw_storage.Page_id.t * Rw_storage.Lsn.t) list;
      (** write set: (page, LSN of the txn's first write to it),
          ascending by LSN *)
}

val txn_summaries : t -> txn_summary list
(** Summaries of every committed, non-aborted transaction wholly inside
    the retained log, ascending by commit LSN (the serialization
    order). *)

val txn_resolution : t -> Txn_id.t -> [ `Committed | `Aborted | `Active | `Unknown ]
(** How the transaction's retained records resolve: committed, aborted,
    or [`Active] — it has log records but neither a commit nor an abort
    record, i.e. it is still in flight in some session.  [`Unknown] for
    a transaction with no retained summary: never logged, or its history
    crosses the retention boundary.  Selective undo validation consults
    this to refuse rewinds that would silently erase an open
    transaction's writes. *)
