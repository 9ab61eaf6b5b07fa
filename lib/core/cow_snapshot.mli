(** Classic copy-on-write database snapshots — the prior art the paper
    positions itself against (§2.2 and §7.1: SQL Server database snapshots,
    Skippy/SNAP/Thresher).

    A COW snapshot is created {e at the current time}; from then on, the
    first modification of any page pushes the page's prior image into the
    snapshot's sparse file, whether or not anybody will ever read it.
    Contrast with as-of snapshots, which pay nothing while the primary
    runs and produce prior versions lazily from the log.

    This implementation exists as the measured baseline for that §7.1
    argument (see the ablation bench): it supports only snapshot-at-now
    (the very limitation the paper removes), and creation requires a
    quiescent moment (no transactions in flight). *)

type t

exception Active_transactions
(** Raised by {!create} when transactions are in flight; the paper's
    engine runs snapshot recovery instead, which this baseline omits. *)

val create :
  ctx:Rw_access.Access_ctx.t ->
  primary_pool:Rw_buffer.Buffer_pool.t ->
  primary_disk:Rw_storage.Disk.t ->
  txns:Rw_txn.Txn_manager.t ->
  log:Rw_wal.Log_manager.t ->
  clock:Rw_storage.Sim_clock.t ->
  media:Rw_storage.Media.t ->
  t
(** Checkpoint the primary (flushing all pages), then begin intercepting
    modifications.  The snapshot reflects the database exactly as of this
    call. *)

val pool : t -> Rw_buffer.Buffer_pool.t
(** Read pages through this pool: sparse-file version if the page changed
    since creation, the (unchanged) primary page otherwise. *)

val pages_copied : t -> int
(** Prior images pushed so far — the proactive overhead the paper's
    scheme avoids. *)

val copy_bytes : t -> int

val drop : t -> unit
(** Stop intercepting and release the sparse file.  (test support: the
    copy-on-write baseline is never dropped by the engine; the tests check
    that interception stops.) *)
