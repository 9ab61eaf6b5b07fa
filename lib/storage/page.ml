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

(* The 8-byte id fields convert to and from int next to the read or
   write: an [int64] returned by a function of another module is boxed
   (see DESIGN.md, "Ids are ints at the byte level"). *)
let get_int p off = Int64.to_int (Bytes.get_int64_le p off)
let set_int p off v = Bytes.set_int64_le p off (Int64.of_int v)
let lsn p = Lsn.of_int (get_int p off_lsn)
let set_lsn p v = set_int p off_lsn (Lsn.to_int v)
let id p = Page_id.of_int (get_int p off_id)
let set_id p v = set_int p off_id (Page_id.to_int v)
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
let prev_page p = Page_id.of_int (get_int p off_prev)
let set_prev_page p v = set_int p off_prev (Page_id.to_int v)
let next_page p = Page_id.of_int (get_int p off_next)
let set_next_page p v = set_int p off_next (Page_id.to_int v)
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

(* Released page buffers, per domain: a bounded stack that [copy],
   [create] and [of_string] take from before allocating.  A fresh 8 KiB
   buffer is a major-heap allocation, and with tens of MiB live its share
   of major GC work costs far more than a blit into a recycled one.  The
   stack is domain-local, so no lock is taken, and a domain only reuses
   what it released.  [release] stores the pointer without reading the
   buffer (dropping a pool would otherwise touch every frame's memory);
   [take] checks the length, on a buffer it is about to overwrite.  The
   bound covers what one snapshot drop gives back: an audit snapshot's
   256 pool frames plus its side file's pages, about 520 buffers. *)
let free_bound = 1024

type free_list = { bufs : bytes array; mutable n : int }

let free_list = Domain.DLS.new_key (fun () -> { bufs = Array.make free_bound Bytes.empty; n = 0 })

let take () =
  let fl = Domain.DLS.get free_list in
  if fl.n = 0 then Bytes.create page_size
  else begin
    fl.n <- fl.n - 1;
    let p = fl.bufs.(fl.n) in
    fl.bufs.(fl.n) <- Bytes.empty;
    if Bytes.length p = page_size then p else Bytes.create page_size
  end

let release p =
  let fl = Domain.DLS.get free_list in
  if fl.n < free_bound then begin
    fl.bufs.(fl.n) <- p;
    fl.n <- fl.n + 1
  end

let create ~id ~typ =
  let p = take () in
  format p ~id ~typ;
  p

let copy p =
  let q = take () in
  Bytes.blit p 0 q 0 page_size;
  q

let of_string s =
  if String.length s <> page_size then invalid_arg "Page.of_string: not a page image";
  let p = take () in
  Bytes.blit_string s 0 p 0 page_size;
  p

(* Checksum covers the whole page except the checksum field itself. *)
let compute_checksum p =
  let c = Checksum.crc32 p ~pos:0 ~len:off_checksum in
  Checksum.crc32 ~init:c p ~pos:(off_checksum + 4) ~len:(page_size - off_checksum - 4)

let seal p = Bytes.set_int32_le p off_checksum (compute_checksum p)

let verify p =
  let stored = Bytes.get_int32_le p off_checksum in
  stored = 0l || stored = compute_checksum p
