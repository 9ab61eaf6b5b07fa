module Page_id = Rw_storage.Page_id

let put_key key =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 key;
  Bytes.unsafe_to_string b

let leaf_row ~key ~payload = put_key key ^ payload

let row_key row =
  if String.length row < 8 then invalid_arg "Rowfmt.row_key: short row";
  String.get_int64_le row 0

let internal_row ~key ~child =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 key;
  Bytes.set_int64_le b 8 (Int64.of_int (Page_id.to_int child));
  Bytes.unsafe_to_string b

let flags_row ~key ~flags = put_key key ^ String.make 1 (Char.chr flags)

let row_flags row =
  if String.length row < 9 then invalid_arg "Rowfmt.row_flags: short row";
  Char.code row.[8]

let kv_row ~key ~value =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 key;
  Bytes.set_int64_le b 8 value;
  Bytes.unsafe_to_string b

let row_value row =
  if String.length row <> 16 then invalid_arg "Rowfmt.row_value: bad row";
  String.get_int64_le row 8
