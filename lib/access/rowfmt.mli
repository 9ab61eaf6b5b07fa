(** On-page row formats.

    Every B-tree row begins with its 8-byte little-endian key so that
    {!Rw_storage.Slotted_page.find_key} can binary-search without decoding
    the payload. *)

val leaf_row : key:int64 -> payload:string -> string
val row_key : string -> int64
val internal_row : key:int64 -> child:Rw_storage.Page_id.t -> string
(** Read back in place by {!Rw_storage.Slotted_page.child_at}; a leaf
    row's payload by {!Rw_storage.Slotted_page.payload_at}. *)

val flags_row : key:int64 -> flags:int -> string
(** Allocation-map rows: key + one flags byte. *)

val row_flags : string -> int

val kv_row : key:int64 -> value:int64 -> string
(** Boot-page rows: key + one 64-bit value. *)

val row_value : string -> int64
