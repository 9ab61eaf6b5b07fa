(** Sparse side file backing a database snapshot.

    Plays the role of the NTFS sparse files in the paper: a page-id-indexed
    store that holds only the pages materialised for the snapshot — for
    classic snapshots the copy-on-write pre-images, for as-of snapshots the
    cached results of [PreparePageAsOf].  Space accounting reports only
    allocated pages, as a sparse file would. *)

type t

val create : clock:Sim_clock.t -> media:Media.t -> unit -> t
val mem : t -> Page_id.t -> bool

val read : t -> Page_id.t -> Page.t option
(** Priced as a random read when the page is present; a miss is free (the
    sparse-file allocation map is metadata, assumed cached). *)

val write : t -> Page_id.t -> Page.t -> unit
val page_ids : t -> Page_id.t list
val page_count : t -> int
val allocated_bytes : t -> int
val drop : t -> unit
(** Release all pages (snapshot deletion). *)
