module Schema = Rw_catalog.Schema
module Codec = Rw_wal.Codec

type value = Int of int64 | Text of string

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let check_value (col : Schema.column) v =
  match (col.ctype, v) with
  | Schema.Int, Int _ | Schema.Text, Text _ -> ()
  | Schema.Int, Text _ -> type_error "column %s expects INT" col.name
  | Schema.Text, Int _ -> type_error "column %s expects TEXT" col.name

let key_of = function
  | Int k :: _ -> k
  | Text _ :: _ -> type_error "key column must be INT"
  | [] -> type_error "empty row"

let encode (table : Schema.table) values =
  if List.length values <> List.length table.columns then
    type_error "table %s expects %d columns, got %d" table.name (List.length table.columns)
      (List.length values);
  List.iter2 check_value table.columns values;
  let key = key_of values in
  let e = Codec.encoder () in
  List.iteri
    (fun i v ->
      if i > 0 then
        match v with
        | Int n -> Codec.i64 e n
        | Text s -> Codec.str16 e s)
    values;
  (key, Codec.to_string e)

(* The one row reader.  A payload holds the non-key columns in schema
   order: an INT as 8 bytes little-endian, a TEXT as a u16 length and its
   bytes.  [field_end] is where [col]'s field, starting at [off], ends;
   every length is checked against the span's end [stop], so a short row
   raises [Type_error] instead of reading past its slot. *)
let short_row (table : Schema.table) (col : Schema.column) =
  type_error "table %s: row ends before column %s" table.name col.name

let field_end table (col : Schema.column) b off ~stop =
  let e =
    match col.ctype with
    | Schema.Int -> off + 8
    | Schema.Text ->
        if off + 2 > stop then short_row table col;
        off + 2 + Bytes.get_uint16_le b off
  in
  if e > stop then short_row table col;
  e

let payload_columns (table : Schema.table) =
  match table.columns with
  | [] -> type_error "table %s has no columns" table.name
  | _key_col :: rest -> rest

let rec int_field table b ~stop i cols j off =
  match cols with
  | [] -> type_error "table %s has no column %d" table.Schema.name i
  | (c : Schema.column) :: rest ->
      let e = field_end table c b off ~stop in
      if j < i then int_field table b ~stop i rest (j + 1) e
      else begin
        match c.ctype with
        | Schema.Int -> Int64.to_int (Bytes.get_int64_le b off)
        | Schema.Text -> type_error "column %s is TEXT, not INT" c.name
      end

let int_at table b ~pos ~len i =
  let cols = payload_columns table in
  if i < 1 then type_error "column %d of table %s is not in the payload" i table.Schema.name;
  int_field table b ~stop:(pos + len) i cols 1 pos

let rec fields table b ~stop cols off =
  match cols with
  | [] -> []
  | (c : Schema.column) :: rest ->
      let e = field_end table c b off ~stop in
      let v =
        match c.ctype with
        | Schema.Int -> Int (Bytes.get_int64_le b off)
        | Schema.Text -> Text (Bytes.sub_string b (off + 2) (e - off - 2))
      in
      v :: fields table b ~stop rest e

let read table ~key b ~pos ~len =
  Int key :: fields table b ~stop:(pos + len) (payload_columns table) pos

let decode table ~key ~payload =
  read table ~key (Bytes.unsafe_of_string payload) ~pos:0 ~len:(String.length payload)

let equal_value a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Text x, Text y -> String.equal x y
  | Int _, Text _ | Text _, Int _ -> false

let pp_value fmt = function
  | Int n -> Format.fprintf fmt "%Ld" n
  | Text s -> Format.fprintf fmt "%S" s

let to_string v = Format.asprintf "%a" pp_value v
