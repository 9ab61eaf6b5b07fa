(** Shared context for access methods.

    Bundles the buffer pool, log and transaction manager, and funnels every
    page modification through {!modify}: log the operation on the
    transaction's chain (threading [prev_page_lsn]), apply its redo effect
    under an exclusive latch, stamp the page LSN, mark the frame dirty —
    and, when the page's chain has grown by one {!fpi} step since its last
    image, emit a full-page image record (the paper's optional logging
    extension, §6.1). *)

type t

(** When a page's full image is logged.  An image bounds every later
    rewind of the page: the rewind restores the earliest image after its
    target and undoes only the chain below it. *)
type fpi =
  | Off  (** never *)
  | Every_mods of int
      (** the paper's N: after every Nth modification of the page *)
  | Budget_bytes of int
      (** once the chain records logged for the page since its last image
          total at least this many bytes, so a rewind undoes at most about
          that much log per page, whatever the row sizes *)

val default_fpi : fpi
(** [Budget_bytes] of one page (8 KiB): the log-volume against undo-work
    trade-off measured in EXPERIMENTS.md. *)

val create :
  pool:Rw_buffer.Buffer_pool.t ->
  txns:Rw_txn.Txn_manager.t ->
  log:Rw_wal.Log_manager.t ->
  clock:Rw_storage.Sim_clock.t ->
  ?fpi:fpi ->
  unit ->
  t
(** [fpi] defaults to {!default_fpi}. *)

val txns : t -> Rw_txn.Txn_manager.t
val log : t -> Rw_wal.Log_manager.t
val fpi : t -> fpi

val modify :
  t -> Rw_txn.Txn_manager.txn -> Rw_storage.Page_id.t -> Rw_wal.Log_record.op -> unit
(** Log and apply one operation to one page (see module doc). *)

val add_pre_modify_hook : t -> (Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit) -> int
(** Register an observer called with the page's {e pre-modification}
    content before every change — the interception point classic
    copy-on-write snapshots need.  Returns a handle for removal. *)

val remove_pre_modify_hook : t -> int -> unit

val read :
  t -> Rw_storage.Page_id.t -> (Rw_storage.Page.t -> 'a) -> 'a
(** Run [f] on the page under a shared latch. *)

val resident_at : t -> Rw_storage.Page_id.t -> Rw_storage.Lsn.t -> bool
(** {!Rw_buffer.Buffer_pool.resident_at} on the context's pool: whether
    the resident copy has that page LSN, at no charge (unlike {!read}, no
    modeled CPU, pin, latch or pool hit). *)

val page_writer : t -> Rw_txn.Txn_manager.page_writer
(** The writer used by rollback to apply CLRs through this context
    (exclusive latch, dirty marking, FPI accounting). *)

val snapshot_page_image : t -> Rw_storage.Page_id.t -> string
(** Current image of a page as a string (for preformat records). *)
