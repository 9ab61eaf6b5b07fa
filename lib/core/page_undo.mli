(** [PreparePageAsOf] — the paper's core primitive (§4).

    Rewinds a single page from its current content to its state as of an
    arbitrary LSN by walking the page's backward chain of log records
    ([prevPageLSN]) and applying each record's undo information.  Pages are
    rewound independently of one another, which is exactly what makes the
    cost of an as-of query proportional to the data it touches rather than
    to the size of the database.

    When the log contains full-page-image records for the page (emitted
    every Nth modification, §6.1), the walk jump-starts from the earliest
    image after the target LSN, skipping the log region above it. *)

exception Chain_broken of { page : Rw_storage.Page_id.t; lsn : Rw_storage.Lsn.t }
(** The record found on a page chain does not belong to that page — a
    corrupted chain. *)

type result = {
  ops_undone : int;  (** individual modifications undone *)
  log_records_read : int;  (** total log records fetched, FPI included *)
  used_fpi : bool;
}

val prepare_page_as_of :
  log:Rw_wal.Log_manager.t -> page:Rw_storage.Page.t -> as_of:Rw_storage.Lsn.t -> result
(** Rewind [page] in place so it reflects only log records with
    LSN <= [as_of].  A page whose LSN is already at or below [as_of] is
    untouched.  Raises {!Rw_wal.Log_manager.Log_truncated} when the chain
    leaves the retention window, {!Chain_broken} on corruption.

    The staged functions below run on a batch of one: the chain records
    are located through the log manager's per-page chain index, fetched in
    ascending LSN order ({!Rw_wal.Log_manager.gather_batch}), and undone in
    place, straight from the record's bytes in its segment blob.  Every
    record is validated (tags, page, backward link, length fields) before
    it is undone; its CRC was checked where its bytes entered the log.
    Any mismatch or failing undo restores the page and falls back to
    {!prepare_page_as_of_walk} — the two entry points are byte-identical
    in effect.  Each such fallback bumps [undo.walk_fallbacks]. *)

val prepare_page_as_of_walk :
  log:Rw_wal.Log_manager.t -> page:Rw_storage.Page.t -> as_of:Rw_storage.Lsn.t -> result
(** The record-at-a-time reference implementation: pointer-chases
    [prevPageLSN] backwards exactly as the paper describes.  Kept public as
    the oracle for regression tests and as the fallback path. *)

(** {2 Staged rewind (gather / apply / publish)}

    The parallel batch pipeline runs {!prepare_page_as_of}'s two halves
    apart: a coordinator-side {!plan_batch} (every priced log read, every
    shared cache), a pure domain-safe {!apply_raw}, and a
    coordinator-side publish that calls {!note}.  A plan that fails to
    gather or apply makes {!apply_raw} return [None] with the page as it
    was; rerunning the page through {!prepare_page_as_of} then
    reproduces the serial path's exact result or exception. *)

type raw_plan
(** Everything one page's apply needs — spans of immutable segment
    blobs — safe to hand to a worker domain. *)

val plan_batch :
  log:Rw_wal.Log_manager.t ->
  as_of:Rw_storage.Lsn.t ->
  Rw_storage.Page.t array ->
  raw_plan array * float array
(** Gather the undo chains of a batch of pages in one log-ordered pass:
    per page, the FPI jump-start record (if one applies) and the
    chain-index segment down to [as_of]; then one
    {!Rw_wal.Log_manager.gather_batch} over all of them, which charges
    each log block the batch needs once.  Returns one plan per page, in
    order, and the modeled time of each charging window (for the fan-out
    overlap credit).  Failures are folded into the failing page's plan,
    not raised; the other plans are unaffected. *)

val apply_raw : page:Rw_storage.Page.t -> as_of:Rw_storage.Lsn.t -> raw_plan -> result option
(** Validate and apply the plan against [page], in place.  Pure CPU over
    private state and immutable log bytes — no I/O, no caches, no probes
    — so it may run on any domain.  [None] means the plan was rejected
    (a bad tag, page, link or length, or an undo that raised); [page] is
    then restored to its image before the call. *)

val note : Rw_storage.Page_id.t -> result -> result
(** Publish-stage accounting for a rewind performed via
    {!apply_raw}: bumps the [undo.*] probes and emits the trace instant
    exactly as the serial path does internally.  Returns its argument. *)
