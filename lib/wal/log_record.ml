module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Lsn = Rw_storage.Lsn
module Checksum = Rw_storage.Checksum

exception Corrupt_record

type op =
  | Insert_row of { slot : int; row : string }
  | Delete_row of { slot : int; row : string }
  | Update_row of { slot : int; before : string; after : string }
  | Set_header of { field : header_field; before : int64; after : int64 }
  | Format of { typ : Page.page_type; level : int }
  | Preformat of { prev_image : string }
  | Full_image of { image : string }

and header_field = Prev_page | Next_page | Special | Level

type body =
  | Begin
  | Commit of { wall_us : float }
  | Abort
  | End
  | Page_op of { page : Page_id.t; prev_page_lsn : Lsn.t; op : op }
  | Clr of { page : Page_id.t; prev_page_lsn : Lsn.t; op : op; undo_next : Lsn.t }
  | Checkpoint of {
      wall_us : float;
      active_txns : (Txn_id.t * Lsn.t) list;
      dirty_pages : (Page_id.t * Lsn.t) list;
    }

type t = { txn : Txn_id.t; prev_txn_lsn : Lsn.t; body : body }

let make ?(txn = Txn_id.nil) ?(prev_txn_lsn = Lsn.nil) body = { txn; prev_txn_lsn; body }

let op_of t =
  match t.body with
  | Page_op { op; _ } | Clr { op; _ } -> Some op
  | Begin | Commit _ | Abort | End | Checkpoint _ -> None

let link_value pid = Int64.of_int (Page_id.to_int pid)

let get_header p = function
  | Prev_page -> link_value (Page.prev_page p)
  | Next_page -> link_value (Page.next_page p)
  | Special -> Page.special p
  | Level -> Int64.of_int (Page.level p)

let set_header p field v =
  match field with
  | Prev_page -> Page.set_prev_page p (Page_id.of_int (Int64.to_int v))
  | Next_page -> Page.set_next_page p (Page_id.of_int (Int64.to_int v))
  | Special -> Page.set_special p v
  | Level -> Page.set_level p (Int64.to_int v)

let redo pid op p =
  match op with
  | Insert_row { slot; row } -> Rw_storage.Slotted_page.insert p ~at:slot row
  | Delete_row { slot; _ } -> Rw_storage.Slotted_page.delete p ~at:slot
  | Update_row { slot; after; _ } -> Rw_storage.Slotted_page.set p ~at:slot after
  | Set_header { field; after; _ } -> set_header p field after
  | Format { typ; level } ->
      Page.format p ~id:pid ~typ;
      Page.set_level p level
  | Preformat _ -> ()
  | Full_image { image } ->
      assert (String.length image = Page.page_size);
      Bytes.blit_string image 0 p 0 Page.page_size;
      (* The image belongs to this page by construction; keep the id in
         sync regardless, as [redo] may target a fresh buffer. *)
      Page.set_id p pid

let undo op p =
  match op with
  | Insert_row { slot; _ } -> Rw_storage.Slotted_page.delete p ~at:slot
  | Delete_row { slot; row } -> Rw_storage.Slotted_page.insert p ~at:slot row
  | Update_row { slot; before; _ } -> Rw_storage.Slotted_page.set p ~at:slot before
  | Set_header { field; before; _ } -> set_header p field before
  | Format _ -> Page.format p ~id:(Page.id p) ~typ:Page.Free
  | Preformat { prev_image } ->
      assert (String.length prev_image = Page.page_size);
      Bytes.blit_string prev_image 0 p 0 Page.page_size
  | Full_image _ -> ()

let invert = function
  | Insert_row { slot; row } -> Some (Delete_row { slot; row })
  | Delete_row { slot; row } -> Some (Insert_row { slot; row })
  | Update_row { slot; before; after } -> Some (Update_row { slot; before = after; after = before })
  | Set_header { field; before; after } -> Some (Set_header { field; before = after; after = before })
  | Format _ -> Some (Format { typ = Page.Free; level = 0 })
  | Preformat _ | Full_image _ -> None

(* --- binary codec --- *)

let field_code = function Prev_page -> 0 | Next_page -> 1 | Special -> 2 | Level -> 3

let field_of_code = function
  | 0 -> Prev_page
  | 1 -> Next_page
  | 2 -> Special
  | 3 -> Level
  | c -> invalid_arg (Printf.sprintf "Log_record: bad header field %d" c)

(* --- the writer ---

   One writer lays out every record: [encoded_size] measures it first,
   so the log can reserve its span in the segment blob, and [encode_into]
   fills that span in one pass and closes it with the CRC trailer.  Each
   [put_*] writes one field at [p] and returns the position after it. *)

let put_u8 b p v =
  Bytes.set_uint8 b p v;
  p + 1

let put_u16 b p v =
  Bytes.set_uint16_le b p v;
  p + 2

let put_u32 b p v =
  Bytes.set_int32_le b p (Int32.of_int v);
  p + 4

let put_int b p v =
  Bytes.set_int64_le b p (Int64.of_int v);
  p + 8

let put_i64 b p v =
  Bytes.set_int64_le b p v;
  p + 8

let put_f64 b p v = put_i64 b p (Int64.bits_of_float v)

let put_string b p s =
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

let put_str16 b p s = put_string b (put_u16 b p (String.length s)) s
let put_str32 b p s = put_string b (put_u32 b p (String.length s)) s

(* A u16-length-prefixed string's size; the length is checked here, while
   sizing, so a record the writer refuses never reaches the log. *)
let str16_size s =
  if String.length s > 0xFFFF then invalid_arg "Codec.str16: too long";
  2 + String.length s

let op_size = function
  | Insert_row { row; _ } | Delete_row { row; _ } -> 3 + str16_size row
  | Update_row { before; after; _ } -> 3 + str16_size before + str16_size after
  | Set_header _ -> 18
  | Format _ -> 3
  | Preformat { prev_image = s } | Full_image { image = s } -> 5 + String.length s

let op_tag = function
  | Insert_row _ -> 0
  | Delete_row _ -> 1
  | Update_row _ -> 2
  | Set_header _ -> 3
  | Format _ -> 4
  | Preformat _ -> 5
  | Full_image _ -> 6

let put_op b p op =
  let p = put_u8 b p (op_tag op) in
  match op with
  | Insert_row { slot; row } | Delete_row { slot; row } -> put_str16 b (put_u16 b p slot) row
  | Update_row { slot; before; after } -> put_str16 b (put_str16 b (put_u16 b p slot) before) after
  | Set_header { field; before; after } ->
      put_i64 b (put_i64 b (put_u8 b p (field_code field)) before) after
  | Format { typ; level } -> put_u8 b (put_u8 b p (Page.type_code typ)) level
  | Preformat { prev_image = image } | Full_image { image } -> put_str32 b p image

let decode_op d =
  let open Codec in
  match get_u8 d with
  | 0 ->
      let slot = get_u16 d in
      let row = get_str16 d in
      Insert_row { slot; row }
  | 1 ->
      let slot = get_u16 d in
      let row = get_str16 d in
      Delete_row { slot; row }
  | 2 ->
      let slot = get_u16 d in
      let before = get_str16 d in
      let after = get_str16 d in
      Update_row { slot; before; after }
  | 3 ->
      let field = field_of_code (get_u8 d) in
      let before = get_i64 d in
      let after = get_i64 d in
      Set_header { field; before; after }
  | 4 ->
      let typ = Page.type_of_code (get_u8 d) in
      let level = get_u8 d in
      Format { typ; level }
  | 5 -> Preformat { prev_image = get_str32 d }
  | 6 -> Full_image { image = get_str32 d }
  | c -> invalid_arg (Printf.sprintf "Log_record: bad op kind %d" c)

(* Every record opens with txn and prev_txn_lsn, then the body tag; a
   page record continues with page and prev_page_lsn ([Clr]: and
   undo_next) before its op.  The layout is spelled out at the header
   peek below. *)
let put_head b p ~txn ~prev_txn_lsn tag =
  put_u8 b (put_int b (put_int b p (Txn_id.to_int txn)) (Lsn.to_int prev_txn_lsn)) tag

let put_page_head b p ~txn ~prev_txn_lsn tag ~page ~prev_page_lsn =
  put_int b
    (put_int b (put_head b p ~txn ~prev_txn_lsn tag) (Page_id.to_int page))
    (Lsn.to_int prev_page_lsn)

(* CRC-32 trailer over everything before it: recovery uses it to tell a
   whole record from a torn tail (see Log_manager.repair_tail). *)
let put_crc b ~pos p = Bytes.set_int32_le b p (Checksum.crc32 b ~pos ~len:(p - pos))

(* txn and prev_txn_lsn, the body from its tag on, the CRC trailer *)
let encoded_size t =
  16
  + (match t.body with
    | Begin | Abort | End -> 1
    | Commit _ -> 9
    | Checkpoint { active_txns; dirty_pages; _ } ->
        17 + (16 * (List.length active_txns + List.length dirty_pages))
    | Page_op { op; _ } -> 17 + op_size op
    | Clr { op; _ } -> 25 + op_size op)
  + 4

let put_pairs b p l to_int =
  List.fold_left
    (fun p (x, lsn) -> put_int b (put_int b p (to_int x)) (Lsn.to_int lsn))
    (put_u32 b p (List.length l))
    l

let encode_into t b ~pos =
  let txn = t.txn and prev_txn_lsn = t.prev_txn_lsn in
  let p =
    match t.body with
    | Begin -> put_head b pos ~txn ~prev_txn_lsn 0
    | Commit { wall_us } -> put_f64 b (put_head b pos ~txn ~prev_txn_lsn 1) wall_us
    | Abort -> put_head b pos ~txn ~prev_txn_lsn 2
    | End -> put_head b pos ~txn ~prev_txn_lsn 3
    | Checkpoint { wall_us; active_txns; dirty_pages } ->
        let p = put_f64 b (put_head b pos ~txn ~prev_txn_lsn 4) wall_us in
        put_pairs b (put_pairs b p active_txns Txn_id.to_int) dirty_pages Page_id.to_int
    | Page_op { page; prev_page_lsn; op } ->
        put_op b (put_page_head b pos ~txn ~prev_txn_lsn 5 ~page ~prev_page_lsn) op
    | Clr { page; prev_page_lsn; op; undo_next } ->
        put_op b
          (put_int b
             (put_page_head b pos ~txn ~prev_txn_lsn 6 ~page ~prev_page_lsn)
             (Lsn.to_int undo_next))
          op
  in
  put_crc b ~pos p

let encode t =
  let b = Bytes.create (encoded_size t) in
  encode_into t b ~pos:0;
  Bytes.unsafe_to_string b

(* Smallest encodable record: txn + prev_txn_lsn + tag + CRC trailer. *)
let min_encoded_size = 8 + 8 + 1 + 4

let check s =
  let n = String.length s in
  n >= min_encoded_size
  &&
  let stored = String.get_int32_le s (n - 4) in
  stored = Checksum.crc32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(n - 4)

let decode s =
  let open Codec in
  let d = decoder s in
  let txn = Txn_id.of_int (get_i64_int d) in
  let prev_txn_lsn = Lsn.of_int (get_i64_int d) in
  let body =
    match get_u8 d with
    | 0 -> Begin
    | 1 -> Commit { wall_us = get_f64 d }
    | 2 -> Abort
    | 3 -> End
    | 4 ->
        let wall_us = get_f64 d in
        let n = get_u32 d in
        let active_txns =
          List.init n (fun _ ->
              let txn = Txn_id.of_int (get_i64_int d) in
              let lsn = Lsn.of_int (get_i64_int d) in
              (txn, lsn))
        in
        let m = get_u32 d in
        let dirty_pages =
          List.init m (fun _ ->
              let page = Page_id.of_int (get_i64_int d) in
              let lsn = Lsn.of_int (get_i64_int d) in
              (page, lsn))
        in
        Checkpoint { wall_us; active_txns; dirty_pages }
    | 5 ->
        let page = Page_id.of_int (get_i64_int d) in
        let prev_page_lsn = Lsn.of_int (get_i64_int d) in
        let op = decode_op d in
        Page_op { page; prev_page_lsn; op }
    | 6 ->
        let page = Page_id.of_int (get_i64_int d) in
        let prev_page_lsn = Lsn.of_int (get_i64_int d) in
        let undo_next = Lsn.of_int (get_i64_int d) in
        let op = decode_op d in
        Clr { page; prev_page_lsn; op; undo_next }
    | c -> invalid_arg (Printf.sprintf "Log_record: bad record kind %d" c)
  in
  { txn; prev_txn_lsn; body }

(* --- header peek --- *)

(* The encoded layout begins with fixed-width fields:
     0..7   txn           (i64)
     8..15  prev_txn_lsn  (i64)
     16     body tag      (u8)
   and for page records:
     17..24 page          (i64)
     25..32 prev_page_lsn (i64)
     33     op tag        (u8)          [Page_op]
     33..40 undo_next     (i64)
     41     op tag        (u8)          [Clr]
   so all chain-walk and analysis headers are extractable without decoding
   the (potentially page-sized) payloads. *)

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
  p_prev_txn_lsn : Lsn.t;
  p_kind : kind;
  p_page : Page_id.t;  (** [Page_id.nil] for non-page records *)
  p_prev_page_lsn : Lsn.t;  (** [Lsn.nil] for non-page records *)
  p_len : int;  (** encoded length, i.e. the record's LSN footprint *)
}

(* Indexed by op tag ([op_tag]). *)
let op_kinds =
  [| K_insert_row; K_delete_row; K_update_row; K_set_header; K_format; K_preformat; K_full_image |]

(* The kinds of page records, one shared value per op kind, so neither
   peek allocates one. *)
let page_op_kinds = Array.map (fun k -> K_page_op k) op_kinds
let clr_kinds = Array.map (fun k -> K_clr k) op_kinds

(* Where the [width]-byte header field at offset [off] of a record of
   [len] bytes starting at [pos] lies; a field past the record's end
   raises, as a sub-string read would. *)
let header_field pos len off width =
  if off + width > len then invalid_arg "Log_record.peek: short record" else pos + off

(* The header of the record at [b.[pos .. pos+p_len-1]], read where it
   sits; nothing past the record is read, and no int64 is boxed. *)
let peek_head b ~pos ~p_len =
  let p_txn = Txn_id.of_int (Codec.peek_i64_int b (header_field pos p_len 0 8)) in
  let p_prev_txn_lsn = Lsn.of_int (Codec.peek_i64_int b (header_field pos p_len 8 8)) in
  match Codec.peek_u8 b (header_field pos p_len 16 1) with
  | (0 | 1 | 2 | 3 | 4) as tag ->
      let p_kind =
        match tag with 0 -> K_begin | 1 -> K_commit | 2 -> K_abort | 3 -> K_end | _ -> K_checkpoint
      in
      { p_txn; p_prev_txn_lsn; p_kind; p_page = Page_id.nil; p_prev_page_lsn = Lsn.nil; p_len }
  | (5 | 6) as tag ->
      let op = Codec.peek_u8 b (header_field pos p_len (if tag = 5 then 33 else 41) 1) in
      if op >= Array.length op_kinds then
        invalid_arg (Printf.sprintf "Log_record.peek: bad op kind %d" op);
      {
        p_txn;
        p_prev_txn_lsn;
        p_kind = (if tag = 5 then page_op_kinds else clr_kinds).(op);
        p_page = Page_id.of_int (Codec.peek_i64_int b (header_field pos p_len 17 8));
        p_prev_page_lsn = Lsn.of_int (Codec.peek_i64_int b (header_field pos p_len 25 8));
        p_len;
      }
  | c -> invalid_arg (Printf.sprintf "Log_record.peek: bad record kind %d" c)

(* The header of [t] encoded in [len] bytes, from its fields: what
   [peek_bytes] would read back from the encoding. *)
let peek_fields t ~len p_kind p_page p_prev_page_lsn =
  { p_txn = t.txn; p_prev_txn_lsn = t.prev_txn_lsn; p_kind; p_page; p_prev_page_lsn; p_len = len }

let peek_of t ~len =
  match t.body with
  | Begin -> peek_fields t ~len K_begin Page_id.nil Lsn.nil
  | Commit _ -> peek_fields t ~len K_commit Page_id.nil Lsn.nil
  | Abort -> peek_fields t ~len K_abort Page_id.nil Lsn.nil
  | End -> peek_fields t ~len K_end Page_id.nil Lsn.nil
  | Checkpoint _ -> peek_fields t ~len K_checkpoint Page_id.nil Lsn.nil
  | Page_op { page; prev_page_lsn; op } ->
      peek_fields t ~len page_op_kinds.(op_tag op) page prev_page_lsn
  | Clr { page; prev_page_lsn; op; _ } ->
      peek_fields t ~len clr_kinds.(op_tag op) page prev_page_lsn

let peek s = peek_head (Bytes.unsafe_of_string s) ~pos:0 ~p_len:(String.length s)
let peek_bytes b ~pos ~len = peek_head b ~pos ~p_len:len

let check_bytes b ~pos ~len =
  len >= min_encoded_size
  &&
  let stored = Bytes.get_int32_le b (pos + len - 4) in
  stored = Checksum.crc32 b ~pos ~len:(len - 4)

let is_page_kind = function K_page_op _ | K_clr _ -> true | _ -> false

(* Commit and checkpoint bodies both open with the f64 wall time, right
   after the tag byte at offset 16. *)
let wall_bytes b ~pos = Int64.float_of_bits (Bytes.get_int64_le b (pos + 17))

(* A checkpoint's active list follows its wall time: a u32 count, then
   (txn, last LSN) pairs of 8 bytes each. *)
let iter_active_bytes b ~pos f =
  let n = Int32.to_int (Bytes.get_int32_le b (pos + 25)) land 0xFFFF_FFFF in
  for k = 0 to n - 1 do
    f (Int64.to_int (Bytes.get_int64_le b (pos + 29 + (16 * k))))
  done

(* --- in-place undo --- *)

(* The record's bytes were CRC-checked once, where they entered the log;
   what is checked here is structure.  The record's payload is bounded
   once ([stop], the start of its CRC trailer), and every length field is
   checked against that bound before the page is touched, so no undo
   reads past its own record. *)
let undo_in_place b ~pos ~len ~page ~prev_lo ~prev_hi p =
  let stop = pos + len - 4 in
  if pos < 0 || stop > Bytes.length b || stop < pos + 34 then raise Corrupt_record;
  let op_at =
    match Bytes.get_uint8 b (pos + 16) with
    | 5 -> pos + 33
    | 6 when stop >= pos + 42 -> pos + 41
    | _ -> raise Corrupt_record
  in
  if Int64.to_int (Bytes.get_int64_le b (pos + 17)) <> Page_id.to_int page then
    raise Corrupt_record;
  let prev = Int64.to_int (Bytes.get_int64_le b (pos + 25)) in
  (* A chain rewind's links are exact but for the oldest record's: an
     exact link is the back pointer itself, with no conversion back. *)
  let back =
    if prev_lo == prev_hi then
      if prev = Lsn.to_int prev_lo then prev_lo else raise Corrupt_record
    else if prev < Lsn.to_int prev_lo || prev > Lsn.to_int prev_hi then raise Corrupt_record
    else Lsn.of_int prev
  in
  (match Bytes.get_uint8 b op_at with
  | (0 | 1 | 2) as kind ->
      (* slot, then the u16-length-prefixed row (Insert/Delete) or before
         image (Update); an Update's after image must fit behind it *)
      let row_pos = op_at + 5 in
      if row_pos > stop then raise Corrupt_record;
      let at = Bytes.get_uint16_le b (op_at + 1) in
      let row_len = Bytes.get_uint16_le b (op_at + 3) in
      let row_end = row_pos + row_len in
      if row_end > stop then raise Corrupt_record;
      if kind = 0 then Rw_storage.Slotted_page.delete p ~at
      else if kind = 1 then Rw_storage.Slotted_page.insert_sub p ~at b ~pos:row_pos ~len:row_len
      else begin
        if row_end + 2 > stop || row_end + 2 + Bytes.get_uint16_le b row_end > stop then
          raise Corrupt_record;
        Rw_storage.Slotted_page.set_sub p ~at b ~pos:row_pos ~len:row_len
      end
  | 3 ->
      if op_at + 18 > stop then raise Corrupt_record;
      let field = field_of_code (Bytes.get_uint8 b (op_at + 1)) in
      set_header p field (Bytes.get_int64_le b (op_at + 2))
  | 4 ->
      if op_at + 3 > stop then raise Corrupt_record;
      Page.format p ~id:(Page.id p) ~typ:Page.Free
  | (5 | 6) as kind ->
      (* a page image: the Preformat's prior one, or a Full_image (undo
         no-op) *)
      if op_at + 5 + Page.page_size > stop
         || Int32.to_int (Bytes.get_int32_le b (op_at + 1)) <> Page.page_size
      then raise Corrupt_record;
      if kind = 5 then Bytes.blit b (op_at + 5) p 0 Page.page_size
  | _ -> raise Corrupt_record);
  back

(* The redo twin of [undo_in_place], under the same bounds discipline:
   the record must modify [page], and every length field is checked
   against the CRC trailer's start before the page is touched. *)
let redo_in_place b ~pos ~len ~page p =
  let stop = pos + len - 4 in
  if pos < 0 || stop > Bytes.length b || stop < pos + 34 then raise Corrupt_record;
  let op_at =
    match Bytes.get_uint8 b (pos + 16) with
    | 5 -> pos + 33
    | 6 when stop >= pos + 42 -> pos + 41
    | _ -> raise Corrupt_record
  in
  if Int64.to_int (Bytes.get_int64_le b (pos + 17)) <> Page_id.to_int page then
    raise Corrupt_record;
  match Bytes.get_uint8 b op_at with
  | (0 | 1 | 2) as kind ->
      (* slot, then the u16-length-prefixed row (Insert/Delete) or before
         image (Update), which an Update's after image follows *)
      let row_pos = op_at + 5 in
      if row_pos > stop then raise Corrupt_record;
      let at = Bytes.get_uint16_le b (op_at + 1) in
      let row_len = Bytes.get_uint16_le b (op_at + 3) in
      let row_end = row_pos + row_len in
      if row_end > stop then raise Corrupt_record;
      if kind = 0 then Rw_storage.Slotted_page.insert_sub p ~at b ~pos:row_pos ~len:row_len
      else if kind = 1 then Rw_storage.Slotted_page.delete p ~at
      else begin
        if row_end + 2 > stop then raise Corrupt_record;
        let after_len = Bytes.get_uint16_le b row_end in
        if row_end + 2 + after_len > stop then raise Corrupt_record;
        Rw_storage.Slotted_page.set_sub p ~at b ~pos:(row_end + 2) ~len:after_len
      end
  | 3 ->
      if op_at + 18 > stop then raise Corrupt_record;
      let field = field_of_code (Bytes.get_uint8 b (op_at + 1)) in
      set_header p field (Bytes.get_int64_le b (op_at + 10))
  | 4 ->
      if op_at + 3 > stop then raise Corrupt_record;
      Page.format p ~id:page ~typ:(Page.type_of_code (Bytes.get_uint8 b (op_at + 1)));
      Page.set_level p (Bytes.get_uint8 b (op_at + 2))
  | (5 | 6) as kind ->
      (* a page image: the Preformat's prior one (redo no-op) or a
         Full_image *)
      if op_at + 5 + Page.page_size > stop
         || Int32.to_int (Bytes.get_int32_le b (op_at + 1)) <> Page.page_size
      then raise Corrupt_record;
      if kind = 6 then begin
        Bytes.blit b (op_at + 5) p 0 Page.page_size;
        Page.set_id p page
      end
  | _ -> raise Corrupt_record

(* --- full page images, written and restored in place --- *)

(* A [Page_op] [Full_image] record as [encode] lays it out: the 33-byte
   page-record header (nil txn and prev_txn_lsn, tag 5, page,
   prev_page_lsn), op tag 6, the u32 image length, the image itself and
   the CRC trailer. *)
let image_at = 38
let image_record_size = image_at + Page.page_size + 4

let encode_image_into b ~pos ~page ~prev_page_lsn image =
  let p =
    put_page_head b pos ~txn:Txn_id.nil ~prev_txn_lsn:Lsn.nil 5 ~page ~prev_page_lsn
  in
  let p = put_u32 b (put_u8 b p 6) Page.page_size in
  Bytes.blit image 0 b p Page.page_size;
  put_crc b ~pos (p + Page.page_size)

let image_in_place b ~pos ~len ~page p =
  if
    len <> image_record_size
    || Bytes.get_uint8 b (pos + 16) <> 5
    || Bytes.get_uint8 b (pos + 33) <> 6
    || Int64.to_int (Bytes.get_int64_le b (pos + 17)) <> Page_id.to_int page
    || Int32.to_int (Bytes.get_int32_le b (pos + 34)) <> Page.page_size
  then raise Corrupt_record;
  Bytes.blit b (pos + image_at) p 0 Page.page_size

let op_name = function
  | Insert_row _ -> "insert_row"
  | Delete_row _ -> "delete_row"
  | Update_row _ -> "update_row"
  | Set_header _ -> "set_header"
  | Format _ -> "format"
  | Preformat _ -> "preformat"
  | Full_image _ -> "full_image"

let kind_name t =
  match t.body with
  | Begin -> "begin"
  | Commit _ -> "commit"
  | Abort -> "abort"
  | End -> "end"
  | Checkpoint _ -> "checkpoint"
  | Page_op { op; _ } -> op_name op
  | Clr { op; _ } -> "clr:" ^ op_name op
