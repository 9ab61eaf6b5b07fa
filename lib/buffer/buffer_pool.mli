(** The buffer manager.

    Caches pages of one page source (the primary database file, or the
    snapshot view of it), enforces the WAL rule before writing back dirty
    pages, and tracks the dirty-page table used by checkpoints and recovery
    analysis.

    The page {e source} is abstract so the same pool serves both the primary
    database (reads hit the disk) and as-of snapshots (reads consult the
    sparse file, fall through to the primary and rewind — paper §5.3); the
    pool itself stays oblivious, exactly like the paper's buffer manager. *)

type source = {
  read : Rw_storage.Page_id.t -> Rw_storage.Page.t;
      (** Must return a private copy: the pool owns the page from then on,
          mutates it in place and, when the frame is evicted or dropped,
          gives its buffer back to [Rw_storage.Page.release].  The same
          holds for {!field-read_cached}'s pages and for {!admit}'s. *)
  write : Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit;
  write_seq : (Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit) option;
      (** Sequential continuation of a write run ({!flush_all} uses it for
          every page of a contiguous run after the first): priced as pure
          transfer, no seek.  [None] falls back to {!field-write}. *)
  read_cached : (Rw_storage.Page_id.t -> Rw_storage.Page.t option) option;
      (** Zero-cost peek consulted on a pool miss {e before} the priced
          {!field-read}.  Snapshot views wire this to exact hits in the
          shared prepared-page cache, so re-fetching an evicted page
          another snapshot has already rewound costs nothing; [Some page]
          must be byte-identical to what {!field-read} would return.
          [None] (the common case) always falls through. *)
}

type t

type frame

val of_disk : Rw_storage.Disk.t -> source
(** The standard source: random page reads/writes on a disk, sealing pages
    on write and verifying checksums on read.  Transient device errors are
    absorbed by bounded retry; a page failing verification raises
    [Rw_storage.Disk.Corrupt_page].  For a source that additionally
    {e repairs} corrupt pages from the log, see [Rw_recovery.Page_repair]. *)

val create :
  capacity:int -> source:source -> ?wal_flush:(Rw_storage.Lsn.t -> unit) -> unit -> t
(** [wal_flush lsn] is invoked before a dirty page with page-LSN [lsn] is
    written back (the WAL rule).  Raises on capacity < 1. *)

val fetch : t -> Rw_storage.Page_id.t -> frame
(** Pin the page, reading it from the source on a miss (evicting if full).
    Raises [Failure] if every frame is pinned. *)

val unpin : t -> frame -> unit

val with_page :
  t -> Rw_storage.Page_id.t -> mode:Latch.mode -> (Rw_storage.Page.t -> 'a) -> 'a
(** Fetch, latch, run, unlatch, unpin (the last two also when the
    function raises). *)

val with_frame : t -> Rw_storage.Page_id.t -> mode:Latch.mode -> (frame -> 'a) -> 'a
(** {!with_page} for a caller that also needs the frame, to {!mark_dirty}
    it. *)

val page : frame -> Rw_storage.Page.t
(** The in-pool page buffer (mutations require the exclusive latch and a
    subsequent {!mark_dirty}).  Valid only while the frame is pinned: an
    evicted or dropped frame's buffer is recycled, so a caller that keeps
    page bytes past {!unpin} takes a copy. *)

val frame_latch : frame -> Latch.t
(** (test support: the pool tests check that {!with_page} released it.) *)

val pin_count : frame -> int
(** (test support: the pool tests check pin accounting.) *)

val capacity : t -> int
(** The frame budget the pool was created with (callers sizing batched
    work against the pool, e.g. parallel redo, use this). *)

val resident_lsn : t -> Rw_storage.Page_id.t -> Rw_storage.Lsn.t option
(** The page LSN of the resident (framed) copy, or [None] when the page is
    not resident right now.  Purely a peek: no pin, latch, recency touch,
    hit/miss accounting or simulated-clock charge. *)

val resident_at : t -> Rw_storage.Page_id.t -> Rw_storage.Lsn.t -> bool
(** [resident_at t pid lsn]: the page is resident with page LSN [lsn].
    The same peek as {!resident_lsn}, with no option allocated. *)

val admit : t -> Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit
(** Install an already-read page with exactly the bookkeeping a
    {!fetch} miss would have performed — miss count, [buf.fetch_miss]
    probe and trace, eviction when full — except the frame starts
    unpinned.  No-op when the page is already resident (the framed copy
    may be newer than the caller's).  The batched scrub publishes its
    sweep reads through this, so a scrubbed pool is indistinguishable
    from one that fetched the same pages one at a time. *)

val mark_dirty : t -> frame -> lsn:Rw_storage.Lsn.t -> unit
(** Record that the frame was modified by the log record at [lsn]; on first
    dirtying this becomes the frame's recovery LSN. *)

val dirty_page_table : t -> (Rw_storage.Page_id.t * Rw_storage.Lsn.t) list
(** (page, recLSN) pairs for the checkpoint record. *)

val flush_all : t -> unit
(** Write back every dirty page in page-id order: one WAL barrier for the
    whole batch, then contiguous page-id runs priced as one seek plus
    sequential transfers (see {!field-write_seq}). *)

val drop_all : t -> unit
(** Discard every frame without writing — crash simulation, or a view
    being dropped — and release the frames' buffers for reuse.  Raises if
    any frame is pinned. *)

val resident : t -> int
(** (test support: the pool tests check residency after eviction.) *)

val hits : t -> int
val misses : t -> int
