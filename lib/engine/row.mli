(** Typed rows over the storage layer's (key, payload) representation.

    The first column of every table is its INT primary key; remaining
    columns are serialised into the payload in schema order. *)

type value = Int of int64 | Text of string

exception Type_error of string

val encode : Rw_catalog.Schema.table -> value list -> int64 * string
(** Split a full row into (key, payload).  Raises {!Type_error} on arity or
    type mismatches against the schema. *)

val int_at : Rw_catalog.Schema.table -> bytes -> pos:int -> len:int -> int -> int
(** [int_at table b ~pos ~len i]: column [i] (the key is column 0) of the
    row whose payload is [b.[pos .. pos+len-1]], read in place as an int,
    without building the row.  The fields before it are skipped, each
    checked against the span's end.  Raises {!Type_error} when column [i]
    is the key (it is not in the payload), TEXT or absent, or when the
    payload ends before the field does. *)

val read :
  Rw_catalog.Schema.table -> key:int64 -> bytes -> pos:int -> len:int -> value list
(** The full row, key column included, from a payload span: the walk of
    every field {!int_at} reads, with its errors. *)

val decode : Rw_catalog.Schema.table -> key:int64 -> payload:string -> value list
(** {!read} of a whole payload string. *)

val key_of : value list -> int64
(** The key column of a full row.  Raises {!Type_error}. *)

val equal_value : value -> value -> bool
val to_string : value -> string
