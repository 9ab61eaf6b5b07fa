(** Simulated page-addressed disk.

    The disk holds the durable state of a database file: buffer-pool flushes
    write here, crash simulation discards everything {e except} the disk and
    the flushed portion of the log.  Every access is priced through the
    {!Media} model against the shared {!Sim_clock}.

    Reads of pages that were never written return a zeroed page, matching the
    behaviour of extending a file with zero fill.

    When a {!Fault_plan} is attached, every priced read/write consults it:
    transient errors raise {!Io_error}, bit rot silently damages the stored
    image (detected by the checksum on the next fetch), and torn writes are
    recorded and applied by {!apply_crash} at crash time.  The [nocost]
    paths never fault (they model offline/bulk operations). *)

type t

exception Corrupt_page of Page_id.t
(** A fetched page failed checksum verification (raised by
    {!read_page_checked}). *)

exception Io_error of { page : Page_id.t; write : bool }
(** A transient device error.  Retryable: the [*_retrying] variants absorb
    up to a bounded number of these with simulated backoff. *)

val create : clock:Sim_clock.t -> media:Media.t -> ?fault_plan:Fault_plan.t -> unit -> t
val clock : t -> Sim_clock.t
val media : t -> Media.t
val stats : t -> Io_stats.t
val fault_plan : t -> Fault_plan.t option
val set_fault_plan : t -> Fault_plan.t option -> unit

val page_count : t -> int
(** One past the highest page ever written (or reserved via {!extend}). *)

val extend : t -> int -> unit
(** [extend t n] grows the file to at least [n] pages with zero fill,
    without storing anything.  Models the cold static bulk of a large
    database: the pages exist (backup must copy them; reads return zeros)
    but occupy no simulator memory. *)

val has_page : t -> Page_id.t -> bool
(** Whether the page was ever actually written (false for zero-filled
    holes). *)

val written_pages : t -> int
(** Number of pages with real content (excludes zero-filled holes). *)

val written_page_ids : t -> Page_id.t list
(** The pages {!has_page} holds, ascending. *)

val read_page : t -> Page_id.t -> Page.t
(** Random read of one page; returns a private copy the caller owns (see
    {!Page.t}). *)

val write_page : t -> Page_id.t -> Page.t -> unit
(** Random write of one page, copied into the disk's stored image; the
    caller keeps its buffer.  (test support:
    the engine writes through {!write_page_retrying}; the tests seed pages
    directly.) *)

val write_page_seq : t -> Page_id.t -> Page.t -> unit

val read_page_nocost : t -> Page_id.t -> Page.t
(** Read without advancing the clock; test and assertion helper. *)

val write_page_nocost : t -> Page_id.t -> Page.t -> unit
(** Store without advancing the clock, for callers that have already
    priced the transfer in bulk (e.g. a streamed restore). *)

val read_page_retrying : t -> Page_id.t -> Page.t
(** {!read_page} with bounded retry: a transient {!Io_error} is retried up
    to three times with exponential backoff priced on the simulated clock
    ({!Io_stats.t.io_retries} counts the extra attempts).  Exhausting the
    budget re-raises. *)

val read_page_checked : t -> Page_id.t -> Page.t
(** {!read_page_retrying}, then checksum verification: a page that fails it
    is counted in {!Io_stats.t.corruptions_detected} and raises
    {!Corrupt_page}.  The buffer pool's page sources and both snapshot
    kinds read primary pages through it; the self-healing source in
    [Page_repair] catches {!Corrupt_page} and repairs the page. *)

val write_page_retrying : t -> Page_id.t -> Page.t -> unit
val write_page_seq_retrying : t -> Page_id.t -> Page.t -> unit

val apply_crash : t -> int
(** Apply every pending torn write to the stored images (the crash
    happened before those pages were rewritten); returns how many pages
    were torn.  Clears the pending set. *)

val corrupt_stored : t -> Page_id.t -> unit
(** Deterministically flip one stored bit of the page (first body byte);
    no-op on never-written pages.  (test support: a fault-injection seam.) *)

val verify_checksums : t -> bool
(** Check every stored page's checksum (free of I/O cost).  (test support:
    the checker the fault tests run after repair.) *)
