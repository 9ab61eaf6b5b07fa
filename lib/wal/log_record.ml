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

let page_of t =
  match t.body with
  | Page_op { page; _ } | Clr { page; _ } -> Some page
  | Begin | Commit _ | Abort | End | Checkpoint _ -> None

let prev_page_lsn_of t =
  match t.body with
  | Page_op { prev_page_lsn; _ } | Clr { prev_page_lsn; _ } -> Some prev_page_lsn
  | Begin | Commit _ | Abort | End | Checkpoint _ -> None

let op_of t =
  match t.body with
  | Page_op { op; _ } | Clr { op; _ } -> Some op
  | Begin | Commit _ | Abort | End | Checkpoint _ -> None

let get_header p = function
  | Prev_page -> Page_id.to_int64 (Page.prev_page p)
  | Next_page -> Page_id.to_int64 (Page.next_page p)
  | Special -> Page.special p
  | Level -> Int64.of_int (Page.level p)

let set_header p field v =
  match field with
  | Prev_page -> Page.set_prev_page p (Page_id.of_int64 v)
  | Next_page -> Page.set_next_page p (Page_id.of_int64 v)
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

let encode_op e op =
  let open Codec in
  match op with
  | Insert_row { slot; row } ->
      u8 e 0;
      u16 e slot;
      str16 e row
  | Delete_row { slot; row } ->
      u8 e 1;
      u16 e slot;
      str16 e row
  | Update_row { slot; before; after } ->
      u8 e 2;
      u16 e slot;
      str16 e before;
      str16 e after
  | Set_header { field; before; after } ->
      u8 e 3;
      u8 e (field_code field);
      i64 e before;
      i64 e after
  | Format { typ; level } ->
      u8 e 4;
      u8 e (Page.type_code typ);
      u8 e level
  | Preformat { prev_image } ->
      u8 e 5;
      str32 e prev_image
  | Full_image { image } ->
      u8 e 6;
      str32 e image

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

let encode t =
  let open Codec in
  let e = encoder () in
  i64 e (Txn_id.to_int64 t.txn);
  i64 e (Lsn.to_int64 t.prev_txn_lsn);
  (match t.body with
  | Begin -> u8 e 0
  | Commit { wall_us } ->
      u8 e 1;
      f64 e wall_us
  | Abort -> u8 e 2
  | End -> u8 e 3
  | Checkpoint { wall_us; active_txns; dirty_pages } ->
      u8 e 4;
      f64 e wall_us;
      u32 e (List.length active_txns);
      List.iter
        (fun (txn, lsn) ->
          i64 e (Txn_id.to_int64 txn);
          i64 e (Lsn.to_int64 lsn))
        active_txns;
      u32 e (List.length dirty_pages);
      List.iter
        (fun (page, lsn) ->
          i64 e (Page_id.to_int64 page);
          i64 e (Lsn.to_int64 lsn))
        dirty_pages
  | Page_op { page; prev_page_lsn; op } ->
      u8 e 5;
      i64 e (Page_id.to_int64 page);
      i64 e (Lsn.to_int64 prev_page_lsn);
      encode_op e op
  | Clr { page; prev_page_lsn; op; undo_next } ->
      u8 e 6;
      i64 e (Page_id.to_int64 page);
      i64 e (Lsn.to_int64 prev_page_lsn);
      i64 e (Lsn.to_int64 undo_next);
      encode_op e op);
  (* CRC-32 trailer over everything before it: recovery uses it to tell a
     whole record from a torn tail (see Log_manager.repair_tail). *)
  let body = to_string e in
  let n = String.length body in
  let crc = Checksum.crc32 (Bytes.unsafe_of_string body) ~pos:0 ~len:n in
  let b = Bytes.create (n + 4) in
  Bytes.blit_string body 0 b 0 n;
  Bytes.set_int32_le b n crc;
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
  if not (check s) then raise Corrupt_record;
  let open Codec in
  let d = decoder s in
  let txn = Txn_id.of_int64 (get_i64 d) in
  let prev_txn_lsn = Lsn.of_int64 (get_i64 d) in
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
              let txn = Txn_id.of_int64 (get_i64 d) in
              let lsn = Lsn.of_int64 (get_i64 d) in
              (txn, lsn))
        in
        let m = get_u32 d in
        let dirty_pages =
          List.init m (fun _ ->
              let page = Page_id.of_int64 (get_i64 d) in
              let lsn = Lsn.of_int64 (get_i64 d) in
              (page, lsn))
        in
        Checkpoint { wall_us; active_txns; dirty_pages }
    | 5 ->
        let page = Page_id.of_int64 (get_i64 d) in
        let prev_page_lsn = Lsn.of_int64 (get_i64 d) in
        let op = decode_op d in
        Page_op { page; prev_page_lsn; op }
    | 6 ->
        let page = Page_id.of_int64 (get_i64 d) in
        let prev_page_lsn = Lsn.of_int64 (get_i64 d) in
        let undo_next = Lsn.of_int64 (get_i64 d) in
        let op = decode_op d in
        Clr { page; prev_page_lsn; op; undo_next }
    | c -> invalid_arg (Printf.sprintf "Log_record: bad record kind %d" c)
  in
  { txn; prev_txn_lsn; body }

let encoded_size t = String.length (encode t)

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

let op_kind_of_tag = function
  | 0 -> K_insert_row
  | 1 -> K_delete_row
  | 2 -> K_update_row
  | 3 -> K_set_header
  | 4 -> K_format
  | 5 -> K_preformat
  | 6 -> K_full_image
  | c -> invalid_arg (Printf.sprintf "Log_record.peek: bad op kind %d" c)

let peek_head s ~p_len =
  let p_txn = Txn_id.of_int64 (Codec.peek_i64 s 0) in
  let p_prev_txn_lsn = Lsn.of_int64 (Codec.peek_i64 s 8) in
  let plain kind =
    { p_txn; p_prev_txn_lsn; p_kind = kind; p_page = Page_id.nil; p_prev_page_lsn = Lsn.nil; p_len }
  in
  match Codec.peek_u8 s 16 with
  | 0 -> plain K_begin
  | 1 -> plain K_commit
  | 2 -> plain K_abort
  | 3 -> plain K_end
  | 4 -> plain K_checkpoint
  | 5 ->
      {
        p_txn;
        p_prev_txn_lsn;
        p_kind = K_page_op (op_kind_of_tag (Codec.peek_u8 s 33));
        p_page = Page_id.of_int64 (Codec.peek_i64 s 17);
        p_prev_page_lsn = Lsn.of_int64 (Codec.peek_i64 s 25);
        p_len;
      }
  | 6 ->
      {
        p_txn;
        p_prev_txn_lsn;
        p_kind = K_clr (op_kind_of_tag (Codec.peek_u8 s 41));
        p_page = Page_id.of_int64 (Codec.peek_i64 s 17);
        p_prev_page_lsn = Lsn.of_int64 (Codec.peek_i64 s 25);
        p_len;
      }
  | c -> invalid_arg (Printf.sprintf "Log_record.peek: bad record kind %d" c)

let peek s = peek_head s ~p_len:(String.length s)

(* Every header field lives in the first 42 bytes (the Clr op tag at
   offset 41 is the deepest), so peeking a record stored inside a segment
   blob only copies that prefix — an FPI's page image never moves. *)
let peek_header_bytes = 42

let peek_bytes b ~pos ~len =
  peek_head (Bytes.sub_string b pos (min len peek_header_bytes)) ~p_len:len

let check_bytes b ~pos ~len =
  len >= min_encoded_size
  &&
  let stored = Bytes.get_int32_le b (pos + len - 4) in
  stored = Checksum.crc32 b ~pos ~len:(len - 4)

let is_page_kind = function K_page_op _ | K_clr _ -> true | _ -> false

(* Commit and checkpoint bodies both open with the f64 wall time, right
   after the tag byte at offset 16. *)
let wall_bytes b ~pos = Int64.float_of_bits (Bytes.get_int64_le b (pos + 17))

(* --- in-place undo --- *)

(* Every length field is bounds-checked against the payload end [stop]
   before the page is touched, so no undo reads past its own record. *)
let need ~stop upto = if upto > stop then raise Corrupt_record

(* One past the u16-length-prefixed string at [at]. *)
let str16_end b ~stop at =
  need ~stop (at + 2);
  let e = at + 2 + Bytes.get_uint16_le b at in
  need ~stop e;
  e

let undo_in_place b ~pos ~len ~page ~prev_lo ~prev_hi p =
  if not (check_bytes b ~pos ~len) then raise Corrupt_record;
  let op_at =
    match Bytes.get_uint8 b (pos + 16) with
    | 5 -> pos + 33
    | 6 -> pos + 41
    | _ -> raise Corrupt_record
  in
  let stop = pos + len - 4 in
  need ~stop (op_at + 1);
  if Int64.to_int (Bytes.get_int64_le b (pos + 17)) <> Page_id.to_int page then
    raise Corrupt_record;
  let prev = Int64.to_int (Bytes.get_int64_le b (pos + 25)) in
  if prev < Lsn.to_int prev_lo || prev > Lsn.to_int prev_hi then raise Corrupt_record;
  (match Bytes.get_uint8 b op_at with
  | (0 | 1 | 2) as kind ->
      (* slot, then the row (Insert/Delete) or the before image (Update) *)
      need ~stop (op_at + 3);
      let at = Bytes.get_uint16_le b (op_at + 1) in
      let row_end = str16_end b ~stop (op_at + 3) in
      let row_pos = op_at + 5 in
      let row_len = row_end - row_pos in
      if kind = 0 then Rw_storage.Slotted_page.delete p ~at
      else if kind = 1 then Rw_storage.Slotted_page.insert_sub p ~at b ~pos:row_pos ~len:row_len
      else begin
        ignore (str16_end b ~stop row_end : int);
        Rw_storage.Slotted_page.set_sub p ~at b ~pos:row_pos ~len:row_len
      end
  | 3 ->
      need ~stop (op_at + 18);
      let field = field_of_code (Bytes.get_uint8 b (op_at + 1)) in
      set_header p field (Bytes.get_int64_le b (op_at + 2))
  | 4 ->
      need ~stop (op_at + 3);
      Page.format p ~id:(Page.id p) ~typ:Page.Free
  | 5 ->
      need ~stop (op_at + 5 + Page.page_size);
      if Int32.to_int (Bytes.get_int32_le b (op_at + 1)) <> Page.page_size then
        raise Corrupt_record;
      Bytes.blit b (op_at + 5) p 0 Page.page_size
  | 6 -> ()
  | _ -> raise Corrupt_record);
  Lsn.of_int prev

(* --- full page images, written and restored in place --- *)

(* A [Page_op] [Full_image] record as [encode] lays it out: the 33-byte
   page-record header (nil txn and prev_txn_lsn, tag 5, page,
   prev_page_lsn), op tag 6, the u32 image length, the image itself and
   the CRC trailer. *)
let image_at = 38
let image_record_size = image_at + Page.page_size + 4

let encode_image_into b ~pos ~page ~prev_page_lsn image =
  Bytes.set_int64_le b pos (Txn_id.to_int64 Txn_id.nil);
  Bytes.set_int64_le b (pos + 8) (Lsn.to_int64 Lsn.nil);
  Bytes.set_uint8 b (pos + 16) 5;
  Bytes.set_int64_le b (pos + 17) (Page_id.to_int64 page);
  Bytes.set_int64_le b (pos + 25) (Lsn.to_int64 prev_page_lsn);
  Bytes.set_uint8 b (pos + 33) 6;
  Bytes.set_int32_le b (pos + 34) (Int32.of_int Page.page_size);
  Bytes.blit image 0 b (pos + image_at) Page.page_size;
  let n = image_at + Page.page_size in
  Bytes.set_int32_le b (pos + n) (Checksum.crc32 b ~pos ~len:n)

let image_in_place b ~pos ~len ~page p =
  if
    len <> image_record_size
    || (not (check_bytes b ~pos ~len))
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

let pp fmt t =
  match t.body with
  | Page_op { page; prev_page_lsn; op } ->
      Format.fprintf fmt "%a %s %a prev=%a" Txn_id.pp t.txn (op_name op) Page_id.pp page Lsn.pp
        prev_page_lsn
  | Clr { page; prev_page_lsn; op; undo_next } ->
      Format.fprintf fmt "%a clr:%s %a prev=%a undo_next=%a" Txn_id.pp t.txn (op_name op)
        Page_id.pp page Lsn.pp prev_page_lsn Lsn.pp undo_next
  | Checkpoint { active_txns; dirty_pages; _ } ->
      Format.fprintf fmt "checkpoint active=%d dirty=%d" (List.length active_txns)
        (List.length dirty_pages)
  | _ -> Format.fprintf fmt "%a %s" Txn_id.pp t.txn (kind_name t)
