(** Fixed-size database pages.

    A page is a [page_size]-byte buffer whose first {!header_size} bytes form
    the page header.  Every on-disk structure in the engine — B-trees, heaps,
    allocation maps, the boot page, the catalog — is made of these pages, so
    the single physical-undo mechanism of the paper applies uniformly to all
    of them.

    Header layout (offsets in bytes):
    {v
      0  page_lsn   (i64)   LSN of the last log record that modified the page
      8  page_id    (i64)
      16 page_type  (u8)
      17 level      (u8)    B-tree level; 0 = leaf
      18 slot_count (u16)
      20 data_low   (u16)   lowest offset of record data (grows downward)
      22 garbage    (u16)   reclaimable bytes below data_low
      24 prev_page  (i64)
      32 next_page  (i64)
      40 special    (i64)   structure-specific scalar
      48 checksum   (u32)   set on flush, verified on read
      52 reserved
    v} *)

type t = bytes

val page_size : int
val header_size : int

type page_type = Free | Boot | Alloc_map | Btree | Heap

val type_code : page_type -> int
val type_of_code : int -> page_type
(** Raises [Invalid_argument] on an unknown code. *)

val create : id:Page_id.t -> typ:page_type -> t
(** A fresh zeroed page with initialised header. *)

val format : t -> id:Page_id.t -> typ:page_type -> unit
(** Reinitialise an existing buffer in place (page [Format] log records
    replay through this). *)

val copy : t -> t

val lsn : t -> Lsn.t
val set_lsn : t -> Lsn.t -> unit
val id : t -> Page_id.t
val set_id : t -> Page_id.t -> unit
val typ : t -> page_type
val level : t -> int
val set_level : t -> int -> unit
val slot_count : t -> int
val set_slot_count : t -> int -> unit
val data_low : t -> int
val set_data_low : t -> int -> unit
val garbage : t -> int
val set_garbage : t -> int -> unit
val prev_page : t -> Page_id.t
val set_prev_page : t -> Page_id.t -> unit
val next_page : t -> Page_id.t
val set_next_page : t -> Page_id.t -> unit
val special : t -> int64
val set_special : t -> int64 -> unit

val seal : t -> unit
(** Compute and store the checksum; call before writing to disk. *)

val verify : t -> bool
(** Check the stored checksum.  A page that was never sealed (all-zero
    checksum over zero body) also verifies. *)
