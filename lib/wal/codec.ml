type encoder = Buffer.t

let encoder () = Buffer.create 128
let to_string e = Buffer.contents e
let u8 e v = Buffer.add_uint8 e v
let u16 e v = Buffer.add_uint16_le e v

let u32 e v =
  if v < 0 then invalid_arg "Codec.u32: negative";
  Buffer.add_int32_le e (Int32.of_int v)

let i64 e v = Buffer.add_int64_le e v

(* The int-typed 8-byte helpers convert next to the stdlib read or write,
   which the compiler inlines, so the int64 in between is never boxed. *)
let i64_int e v = Buffer.add_int64_le e (Int64.of_int v)

let f64 e v = Buffer.add_int64_le e (Int64.bits_of_float v)

let str16 e s =
  if String.length s > 0xFFFF then invalid_arg "Codec.str16: too long";
  u16 e (String.length s);
  Buffer.add_string e s

let str32 e s =
  u32 e (String.length s);
  Buffer.add_string e s

(* Positional peeks: read one field out of encoded bytes (a record inside
   a segment blob) without building a decoder or advancing any cursor.  The header-peek read path
   uses these to extract record headers without allocating payloads. *)
let peek_u8 b pos = Bytes.get_uint8 b pos
let peek_i64_int b pos = Int64.to_int (Bytes.get_int64_le b pos)

type decoder = { data : string; mutable pos : int }

let decoder data = { data; pos = 0 }
let decoder_at data ~pos = { data; pos }
let at_end d = d.pos >= String.length d.data

let get_u8 d =
  let v = Char.code d.data.[d.pos] in
  d.pos <- d.pos + 1;
  v

let get_u16 d =
  let v = String.get_uint16_le d.data d.pos in
  d.pos <- d.pos + 2;
  v

let get_u32 d =
  let v = Int32.to_int (String.get_int32_le d.data d.pos) in
  d.pos <- d.pos + 4;
  (* Encoded from a non-negative int; mask out sign extension artefacts. *)
  v land 0xFFFFFFFF

let get_i64 d =
  let v = String.get_int64_le d.data d.pos in
  d.pos <- d.pos + 8;
  v

let get_i64_int d =
  let v = Int64.to_int (String.get_int64_le d.data d.pos) in
  d.pos <- d.pos + 8;
  v

let get_f64 d = Int64.float_of_bits (get_i64 d)

let get_str16 d =
  let n = get_u16 d in
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s

let get_str32 d =
  let n = get_u32 d in
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s
