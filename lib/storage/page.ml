type t = bytes

let page_size = 8192
let header_size = 64

type page_type = Free | Boot | Alloc_map | Btree | Heap

let type_code = function
  | Free -> 0
  | Boot -> 1
  | Alloc_map -> 2
  | Btree -> 3
  | Heap -> 4

let type_of_code = function
  | 0 -> Free
  | 1 -> Boot
  | 2 -> Alloc_map
  | 3 -> Btree
  | 4 -> Heap
  | c -> invalid_arg (Printf.sprintf "Page.type_of_code: %d" c)

let off_lsn = 0
let off_id = 8
let off_type = 16
let off_level = 17
let off_slot_count = 18
let off_data_low = 20
let off_garbage = 22
let off_prev = 24
let off_next = 32
let off_special = 40
let off_checksum = 48

let lsn p = Lsn.of_int64 (Bytes.get_int64_le p off_lsn)
let set_lsn p v = Bytes.set_int64_le p off_lsn (Lsn.to_int64 v)
let id p = Page_id.of_int64 (Bytes.get_int64_le p off_id)
let set_id p v = Bytes.set_int64_le p off_id (Page_id.to_int64 v)
let typ p = type_of_code (Char.code (Bytes.get p off_type))
let set_typ p v = Bytes.set p off_type (Char.chr (type_code v))
let level p = Char.code (Bytes.get p off_level)
let set_level p v = Bytes.set p off_level (Char.chr v)
let slot_count p = Bytes.get_uint16_le p off_slot_count
let set_slot_count p v = Bytes.set_uint16_le p off_slot_count v
let data_low p = Bytes.get_uint16_le p off_data_low
let set_data_low p v = Bytes.set_uint16_le p off_data_low v
let garbage p = Bytes.get_uint16_le p off_garbage
let set_garbage p v = Bytes.set_uint16_le p off_garbage v
let prev_page p = Page_id.of_int64 (Bytes.get_int64_le p off_prev)
let set_prev_page p v = Bytes.set_int64_le p off_prev (Page_id.to_int64 v)
let next_page p = Page_id.of_int64 (Bytes.get_int64_le p off_next)
let set_next_page p v = Bytes.set_int64_le p off_next (Page_id.to_int64 v)
let special p = Bytes.get_int64_le p off_special
let set_special p v = Bytes.set_int64_le p off_special v

let format p ~id:pid ~typ:pt =
  Bytes.fill p 0 page_size '\000';
  set_id p pid;
  set_typ p pt;
  set_prev_page p Page_id.nil;
  set_next_page p Page_id.nil;
  (* data_low starts at the end of the page: record data grows downward. *)
  set_data_low p page_size

let create ~id ~typ =
  let p = Bytes.create page_size in
  format p ~id ~typ;
  p

let copy p = Bytes.copy p

(* Checksum covers the whole page except the checksum field itself. *)
let compute_checksum p =
  let c = Checksum.crc32 p ~pos:0 ~len:off_checksum in
  Checksum.crc32 ~init:c p ~pos:(off_checksum + 4) ~len:(page_size - off_checksum - 4)

let seal p = Bytes.set_int32_le p off_checksum (compute_checksum p)

let verify p =
  let stored = Bytes.get_int32_le p off_checksum in
  stored = 0l || stored = compute_checksum p
