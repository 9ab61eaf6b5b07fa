(** Binary encoding helpers shared by log-record and row serialisation. *)

type encoder

val encoder : unit -> encoder
val to_string : encoder -> string
val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
val i64 : encoder -> int64 -> unit
val f64 : encoder -> float -> unit

val str16 : encoder -> string -> unit
(** Length-prefixed (u16) string; raises on strings longer than 65535. *)

val str32 : encoder -> string -> unit

val peek_u8 : string -> int -> int
(** [peek_u8 s pos] reads the byte at [pos] without a decoder. *)

val peek_i64 : string -> int -> int64
(** [peek_i64 s pos] reads a little-endian int64 at [pos] without a
    decoder. *)

type decoder

val decoder : string -> decoder
val decoder_at : string -> pos:int -> decoder
val at_end : decoder -> bool
(** (test support: the round-trip test checks a decode consumed it all.) *)

val get_u8 : decoder -> int
val get_u16 : decoder -> int
val get_u32 : decoder -> int
val get_i64 : decoder -> int64
val get_f64 : decoder -> float
val get_str16 : decoder -> string
val get_str32 : decoder -> string
