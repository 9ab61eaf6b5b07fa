(** Log records: the vocabulary of the write-ahead log.

    The engine uses physiological logging in the ARIES style: every change to
    a page is a separate log record carrying both redo and undo information,
    and the records of one page are back-linked through [prev_page_lsn] —
    the chain that {e PreparePageAsOf} walks to rewind a page (paper §4).

    Log extensions required by the paper (§4.2) are all present:
    - {!op.Preformat} records link the chain across page re-allocation and
      carry the complete prior image;
    - {!body.Clr} compensation records carry undo information (classic ARIES
      CLRs are redo-only);
    - {!op.Delete_row} carries the deleted row image so B-tree structure
      modifications (logged as insert + delete) can be undone page-locally;
    - {!op.Full_image} records (every Nth modification, §6.1) let undo skip
      log regions. *)

(** A physical operation against one page.  Redo assumes the pre-state,
    undo assumes the post-state. *)
type op =
  | Insert_row of { slot : int; row : string }
  | Delete_row of { slot : int; row : string }
      (** [row] is the undo information the paper adds for SMO deletes. *)
  | Update_row of { slot : int; before : string; after : string }
  | Set_header of { field : header_field; before : int64; after : int64 }
  | Format of { typ : Rw_storage.Page.page_type; level : int }
      (** Page (re)initialisation; begins a page chain. *)
  | Preformat of { prev_image : string }
      (** Logged at re-allocation, before {!Format}: stores the prior page
          content and links to the prior chain. *)
  | Full_image of { image : string }
      (** Complete page image after the modification; undo no-op. *)

and header_field = Prev_page | Next_page | Special | Level

type body =
  | Begin
  | Commit of { wall_us : float }
      (** Commit records carry wall-clock time; the SplitLSN search uses
          them for fine positioning (paper §5.1). *)
  | Abort
  | End
  | Page_op of { page : Rw_storage.Page_id.t; prev_page_lsn : Rw_storage.Lsn.t; op : op }
  | Clr of {
      page : Rw_storage.Page_id.t;
      prev_page_lsn : Rw_storage.Lsn.t;
      op : op;
      undo_next : Rw_storage.Lsn.t;  (** next record of the txn to undo *)
    }
  | Checkpoint of {
      wall_us : float;
      active_txns : (Txn_id.t * Rw_storage.Lsn.t) list;
          (** txn id, LSN of its most recent log record *)
      dirty_pages : (Rw_storage.Page_id.t * Rw_storage.Lsn.t) list;
          (** page id, recovery LSN (earliest unflushed change) *)
    }

type t = { txn : Txn_id.t; prev_txn_lsn : Rw_storage.Lsn.t; body : body }

exception Corrupt_record
(** An encoded record failed its CRC trailer check (torn or rotten) where
    it entered the log, or failed a structural check of the in-place
    kernels below. *)

val make : ?txn:Txn_id.t -> ?prev_txn_lsn:Rw_storage.Lsn.t -> body -> t

val op_of : t -> op option

val link_value : Rw_storage.Page_id.t -> int64
(** The {!op.Set_header} value of a link to the page ([-1L] for
    [Page_id.nil]), as [Prev_page], [Next_page] or a heap's [Special]
    tail pointer store it. *)

val get_header : Rw_storage.Page.t -> header_field -> int64
(** Read a header field as an int64; convenient for building
    {!op.Set_header} operations with correct before-images. *)

val redo : Rw_storage.Page_id.t -> op -> Rw_storage.Page.t -> unit
(** [redo pid op page] applies the operation's redo effect to a page whose
    content is the pre-state; [pid] identifies the page so that [Format] can
    initialise a fresh buffer.  The caller updates the page LSN. *)

val undo : op -> Rw_storage.Page.t -> unit
(** Reverse the operation on a page whose content is the post-state. *)

val invert : op -> op option
(** The compensating operation, used to build CLRs during rollback.
    [None] for operations that need no compensation ({!op.Full_image}). *)

val encode : t -> string
(** The encoding ends in a CRC-32 trailer over the preceding bytes, so a
    torn or corrupted record is detectable without attempting a decode.
    The string form of {!encode_into}, which the log's append uses. *)

val encoded_size : t -> int
(** The length of [encode t], computed without encoding.  Raises
    [Invalid_argument] where {!encode} would, on a row or image too long
    for its length field, so a record the writer refuses is refused
    before the log reserves room for it. *)

val encode_into : t -> bytes -> pos:int -> unit
(** [encode_into t b ~pos] writes [encode t] at
    [b.[pos .. pos + encoded_size t - 1]], CRC trailer included: the
    log's append writes each record once, straight into its segment. *)

val decode : string -> t
(** Parses an encoded record.  The CRC trailer is not checked: the log
    checks it once, where the bytes enter the process
    ([Log_manager.restore_entries], [ingest_entries], [repair_tail]).  A
    malformed record raises [Invalid_argument] or [Failure]. *)

val check : string -> bool
(** Whether the encoded record's CRC trailer matches its content — the
    check a loaded or shipped record passes before the log accepts it.
    Never raises. *)

val kind_name : t -> string
(** (test support: the tests pick and name records by kind.) *)

(** {2 Header peek}

    The hot read paths (chain walks, recovery analysis, redo filtering)
    mostly need a record's {e header} — which page it touches, its backward
    chain pointer, its kind — and not the row payloads, which dominate both
    the encoded bytes and the decode cost.  {!peek} extracts exactly those
    headers from the encoded string without allocating any payload. *)

type op_kind =
  | K_insert_row
  | K_delete_row
  | K_update_row
  | K_set_header
  | K_format
  | K_preformat
  | K_full_image

type kind =
  | K_begin
  | K_commit
  | K_abort
  | K_end
  | K_checkpoint
  | K_page_op of op_kind
  | K_clr of op_kind

type peek = {
  p_txn : Txn_id.t;
  p_prev_txn_lsn : Rw_storage.Lsn.t;
  p_kind : kind;
  p_page : Rw_storage.Page_id.t;  (** [Page_id.nil] for non-page records *)
  p_prev_page_lsn : Rw_storage.Lsn.t;  (** [Lsn.nil] for non-page records *)
  p_len : int;  (** encoded length, i.e. the record's LSN footprint *)
}

val peek : string -> peek
(** O(1) header extraction from an encoded record; never allocates row or
    page-image payloads.  Raises [Invalid_argument] on corrupt input.
    (test support: the record tests peek encoded strings; the log peeks
    in place, {!peek_bytes}, or from the fields, {!peek_of}.) *)

val peek_bytes : bytes -> pos:int -> len:int -> peek
(** {!peek} of the encoded record occupying [b.[pos .. pos+len-1]] — the
    in-place variant used when records live inside a log-segment blob.
    Reads the header where it sits and copies nothing. *)

val peek_of : t -> len:int -> peek
(** [peek_of t ~len] is [peek (encode t)] for a record whose encoding is
    [len] bytes long, taken from [t]'s fields without reading the
    encoding: how the append path indexes the record it just wrote. *)

val check_bytes : bytes -> pos:int -> len:int -> bool
(** {!check} of the encoded record occupying [b.[pos .. pos+len-1]],
    without extracting it — the torn-tail detector of tail repair.  Never
    raises. *)

val is_page_kind : kind -> bool
(** Whether the kind is [K_page_op] or [K_clr]. *)

val wall_bytes : bytes -> pos:int -> float
(** The wall-clock field of the encoded [Commit] or [Checkpoint] record
    starting at [b.[pos]], read in place — the one field the header
    {!peek} lacks.  Undefined for other kinds. *)

val iter_active_bytes : bytes -> pos:int -> (int -> unit) -> unit
(** [iter_active_bytes b ~pos f] calls [f] on the transaction id (as
    {!Txn_id.to_int}) of each entry of the active list of the encoded
    [Checkpoint] record starting at [b.[pos]], in order, read in place.
    Undefined for other kinds. *)

(** {2 In-place undo and redo}

    The rewind kernel's and redo's view of a page record: each validates
    the record and undoes or redoes it where it sits in a log-segment blob,
    with no {!decode} and no payload copy. *)

val undo_in_place :
  bytes ->
  pos:int ->
  len:int ->
  page:Rw_storage.Page_id.t ->
  prev_lo:Rw_storage.Lsn.t ->
  prev_hi:Rw_storage.Lsn.t ->
  Rw_storage.Page.t ->
  Rw_storage.Lsn.t
(** [undo_in_place b ~pos ~len ~page ~prev_lo ~prev_hi p] undoes the
    encoded record at [b.[pos .. pos+len-1]] on [p], byte-for-byte as
    [undo (op of (decode r)) p] would.  The record must modify [page]
    and its [prev_page_lsn] must lie in
    [\[prev_lo, prev_hi\]] (the caller's chain link); it is returned.
    The span's bounds, the page-record tag, the page id, the link and the
    op's length fields are all checked before the page is touched, and
    {!Corrupt_record} is raised if any check fails.  The CRC trailer is
    not: it was checked where the bytes entered the log.  Slotted-page
    failures of the undo itself ([Page_full], [Invalid_argument])
    propagate and may leave the page changed. *)

val redo_in_place :
  bytes -> pos:int -> len:int -> page:Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit
(** [redo_in_place b ~pos ~len ~page p] redoes the encoded record at
    [b.[pos .. pos+len-1]] on [p], byte-for-byte as
    [redo page (op of (decode r)) p] would, with no {!decode} and no
    payload copy.  The record must modify [page]; the span's bounds, the
    page-record tag, the page id and the op's length fields are checked
    before the page is touched, and {!Corrupt_record} is raised if any
    check fails.  The CRC trailer is not: it was checked where the bytes
    entered the log.  Slotted-page failures of the redo itself
    propagate. *)

(** {2 Full page images in place}

    A full page image is 8 KiB of payload behind a fixed header.  The
    write path encodes it straight into the log's segment blob and the
    rewind path restores it from there, so neither builds the record
    value nor copies the image through an intermediate string. *)

val image_record_size : int
(** Encoded size of a [Page_op] {!op.Full_image} record of one page. *)

val encode_image_into :
  bytes ->
  pos:int ->
  page:Rw_storage.Page_id.t ->
  prev_page_lsn:Rw_storage.Lsn.t ->
  Rw_storage.Page.t ->
  unit
(** [encode_image_into b ~pos ~page ~prev_page_lsn img] writes at
    [b.[pos .. pos+image_record_size-1]] exactly the bytes {!encode}
    gives for [make (Page_op { page; prev_page_lsn; op = Full_image
    { image = img } })] — a system record outside any transaction. *)

val image_in_place :
  bytes -> pos:int -> len:int -> page:Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit
(** [image_in_place b ~pos ~len ~page p] blits the page image of the
    encoded record at [b.[pos .. pos+len-1]] over [p].  The length, the
    record and op tags, the page id and the image length are all checked
    first; {!Corrupt_record} is raised, with [p] untouched, if any fails.
    Like {!undo_in_place} it leaves the CRC trailer to the log's entry
    points. *)
