(** Binary encoding helpers of row and catalog serialisation, and the
    readers of log records.  A log record is written in place by
    [Log_record]'s own writer, straight into its segment blob. *)

type encoder

val encoder : unit -> encoder
val to_string : encoder -> string
val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
val i64 : encoder -> int64 -> unit

val i64_int : encoder -> int -> unit
(** [i64_int e v] writes the bytes of [i64 e (Int64.of_int v)] without
    boxing an int64: the form of LSNs, page ids and txn ids. *)

val f64 : encoder -> float -> unit

val str16 : encoder -> string -> unit
(** Length-prefixed (u16) string; raises on strings longer than 65535. *)

val str32 : encoder -> string -> unit

val peek_u8 : bytes -> int -> int
(** [peek_u8 b pos] reads the byte at [pos] without a decoder. *)

val peek_i64_int : bytes -> int -> int
(** [peek_i64_int b pos] reads the little-endian 8-byte field at [pos] as
    an int, without a decoder and without boxing an int64. *)

type decoder

val decoder : string -> decoder
val decoder_at : string -> pos:int -> decoder
val at_end : decoder -> bool
(** (test support: the round-trip test checks a decode consumed it all.) *)

val get_u8 : decoder -> int
val get_u16 : decoder -> int
val get_u32 : decoder -> int
val get_i64 : decoder -> int64

val get_i64_int : decoder -> int
(** The field {!i64_int} wrote, as an int. *)

val get_f64 : decoder -> float
val get_str16 : decoder -> string
val get_str32 : decoder -> string
