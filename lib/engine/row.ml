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

let decode (table : Schema.table) ~key ~payload =
  let d = Codec.decoder payload in
  let rest =
    match table.columns with
    | [] -> type_error "table %s has no columns" table.name
    | _key_col :: rest ->
        List.map
          (fun (c : Schema.column) ->
            match c.ctype with
            | Schema.Int -> Int (Codec.get_i64 d)
            | Schema.Text -> Text (Codec.get_str16 d))
          rest
  in
  Int key :: rest

let equal_value a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Text x, Text y -> String.equal x y
  | Int _, Text _ | Text _, Int _ -> false

let pp_value fmt = function
  | Int n -> Format.fprintf fmt "%Ld" n
  | Text s -> Format.fprintf fmt "%S" s

let to_string v = Format.asprintf "%a" pp_value v
