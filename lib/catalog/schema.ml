module Codec = Rw_wal.Codec
module Page_id = Rw_storage.Page_id

type col_type = Int | Text

type column = { name : string; ctype : col_type }

type kind = Btree_table | Heap_table

type index = { index_name : string; column : string; index_root : Page_id.t }

type table = {
  id : int;
  name : string;
  kind : kind;
  root : Page_id.t;
  columns : column list;
  indexes : index list;
}

let col_type_code = function Int -> 0 | Text -> 1

let col_type_of_code = function
  | 0 -> Int
  | 1 -> Text
  | c -> invalid_arg (Printf.sprintf "Schema: bad column type %d" c)

let kind_code = function Btree_table -> 0 | Heap_table -> 1

let kind_of_code = function
  | 0 -> Btree_table
  | 1 -> Heap_table
  | c -> invalid_arg (Printf.sprintf "Schema: bad table kind %d" c)

let encode t =
  let e = Codec.encoder () in
  Codec.u32 e t.id;
  Codec.str16 e t.name;
  Codec.u8 e (kind_code t.kind);
  Codec.i64_int e (Page_id.to_int t.root);
  Codec.u16 e (List.length t.columns);
  List.iter
    (fun (c : column) ->
      Codec.str16 e c.name;
      Codec.u8 e (col_type_code c.ctype))
    t.columns;
  Codec.u16 e (List.length t.indexes);
  List.iter
    (fun (ix : index) ->
      Codec.str16 e ix.index_name;
      Codec.str16 e ix.column;
      Codec.i64_int e (Page_id.to_int ix.index_root))
    t.indexes;
  Codec.to_string e

let decode s =
  let d = Codec.decoder s in
  let id = Codec.get_u32 d in
  let name = Codec.get_str16 d in
  let kind = kind_of_code (Codec.get_u8 d) in
  let root = Page_id.of_int (Codec.get_i64_int d) in
  let n = Codec.get_u16 d in
  let columns =
    List.init n (fun _ ->
        let name = Codec.get_str16 d in
        let ctype = col_type_of_code (Codec.get_u8 d) in
        { name; ctype })
  in
  let m = Codec.get_u16 d in
  let indexes =
    List.init m (fun _ ->
        let index_name = Codec.get_str16 d in
        let column = Codec.get_str16 d in
        let index_root = Page_id.of_int (Codec.get_i64_int d) in
        { index_name; column; index_root })
  in
  { id; name; kind; root; columns; indexes }

let valid_ident s =
  String.length s > 0
  && String.length s <= 128
  && String.for_all (fun c -> c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) s
  && not (s.[0] >= '0' && s.[0] <= '9')

let validate ~name ~(columns : column list) =
  if not (valid_ident name) then Error (Printf.sprintf "invalid table name %S" name)
  else if columns = [] then Error "a table needs at least one column"
  else if List.exists (fun (c : column) -> not (valid_ident c.name)) columns then
    Error "invalid column name"
  else
    let names = List.map (fun (c : column) -> c.name) columns in
    let uniq = List.sort_uniq String.compare names in
    if List.length uniq <> List.length names then Error "duplicate column names"
    else
      match (columns : column list) with
      | { ctype = Int; _ } :: _ -> Ok ()
      | { name; _ } :: _ -> Error (Printf.sprintf "key column %s must have type INT" name)
      | [] -> assert false
