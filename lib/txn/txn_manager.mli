(** Transaction lifecycle: begin, page-op logging, commit, rollback.

    Every page modification a transaction makes is logged through
    {!log_page_op}, which threads the per-transaction backward chain
    ([prev_txn_lsn]).  Rollback walks that chain, writing {e compensation
    log records that carry undo information} (the paper's §4.2 extension)
    and applying the inverse operations through a caller-supplied page
    writer, so this module needs no knowledge of the buffer manager.

    Commit is split in two for group commit: {!commit_begin} appends the
    commit record, releases locks, and registers a durability waiter;
    {!flush_commits} (or any log flush routed through {!flush_log}) issues
    one priced device write for every waiter in the batch and acknowledges
    them.  The durability invariant: a transaction is reported [Committed]
    only once its commit record is on stable storage.  See DESIGN.md
    "Write path". *)

type t

type txn

type state =
  | Active
  | Committing
      (** Commit record appended and locks released, but durability not yet
          acknowledged — the record may still be in the unflushed log tail. *)
  | Committed
  | Aborted

val create : log:Rw_wal.Log_manager.t -> locks:Lock_manager.t -> t
val locks : t -> Lock_manager.t
(** (test support: the tests inspect the locks a transaction holds.) *)

val set_group_commit : t -> max_batch_bytes:int -> max_delay_us:float -> unit
(** Tune the flush scheduler: a commit triggers a flush only once the
    unflushed log tail reaches [max_batch_bytes] or the oldest waiter has
    been pending [max_delay_us] of simulated time.  Both zero (the default)
    means flush on every commit — a batch of one. *)

val pending_commits : t -> int
(** Number of committing transactions awaiting durability acknowledgement. *)

val set_next_id : t -> Rw_wal.Txn_id.t -> unit
(** Seed the id counter above every id seen in the log (after recovery). *)

val begin_txn : t -> txn
val txn_id : txn -> Rw_wal.Txn_id.t
val state : txn -> state
val last_lsn : txn -> Rw_storage.Lsn.t
(** (test support: the tests read back a transaction's newest record.) *)

val active_txns : t -> (Rw_wal.Txn_id.t * Rw_storage.Lsn.t) list
(** For the checkpoint record: (id, last LSN) of every active txn.
    [Committing] txns are excluded — their outcome is decided solely by
    whether their commit record is durable. *)

val active_count : t -> int
(** Number of transactions currently in the [Active] state (the
    [\sessions] display; committing txns are excluded exactly as in
    {!active_txns}). *)

val lock : t -> txn -> Lock_manager.resource -> Lock_manager.mode -> unit

val log_page_op :
  t ->
  txn ->
  page:Rw_storage.Page_id.t ->
  prev_page_lsn:Rw_storage.Lsn.t ->
  Rw_wal.Log_record.op ->
  Rw_storage.Lsn.t
(** Append a [Page_op] on the transaction's chain; returns its LSN.  The
    caller applies the op to the page and stamps the page LSN. *)

val commit_begin : t -> txn -> wall_us:float -> Rw_storage.Lsn.t
(** Append the commit record (carrying wall-clock time for SplitLSN
    searches), move the txn to [Committing], release its locks, and register
    a durability waiter.  Returns the commit record's LSN.  The state leaves
    [Active] atomically with the append, so a failure later in the commit
    path can never leave an active txn with a dangling commit record. *)

val flush_commits : t -> int
(** Force the log up to the newest pending commit record — one seek plus one
    sequential write for the whole batch — and acknowledge every covered
    waiter ([Committed] + [End] record).  Returns the number acknowledged. *)

val maybe_flush : t -> int
(** Run the flush scheduler: flush as {!flush_commits} if the batching
    policy's byte or delay threshold has tripped, else leave the batch
    accumulating.  Returns the number of commits acknowledged. *)

val ack_flushed : t -> int
(** Acknowledge waiters already covered by the durable boundary without
    issuing any flush (used after an externally triggered log flush, e.g. a
    checkpoint).  Returns the number acknowledged. *)

val flush_log : t -> upto:Rw_storage.Lsn.t -> unit
(** [Log_manager.flush] followed by {!ack_flushed}: the WAL-rule entry point
    used by the buffer pool, so page flushes that force the log also deliver
    any pending commit acknowledgements. *)

val commit : t -> txn -> wall_us:float -> unit
(** Compat single-transaction commit: {!commit_begin} then {!flush_commits}
    — a durable batch of one. *)

type page_writer = Rw_storage.Page_id.t -> (Rw_storage.Page.t -> Rw_storage.Lsn.t) -> unit
(** [writer pid f] must present page [pid] exclusively latched to [f];
    [f] returns the page's new LSN, which the writer uses to mark the frame
    dirty. *)

val rollback : t -> txn -> write_page:page_writer -> unit
(** Undo the transaction: walk its chain newest-first, log a CLR (with undo
    information) per undone operation, apply inverses via [write_page].
    Resumes correctly over pre-existing CLRs (partial rollbacks). *)

val finished : t -> txn -> unit
(** Forget a committed/aborted txn (bookkeeping).  Also accepts a
    [Committing] txn: it stays reachable through its durability waiter until
    acknowledged. *)
