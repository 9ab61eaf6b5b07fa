(** Typed rows over the storage layer's (key, payload) representation.

    The first column of every table is its INT primary key; remaining
    columns are serialised into the payload in schema order. *)

type value = Int of int64 | Text of string

exception Type_error of string

val encode : Rw_catalog.Schema.table -> value list -> int64 * string
(** Split a full row into (key, payload).  Raises {!Type_error} on arity or
    type mismatches against the schema. *)

val decode : Rw_catalog.Schema.table -> key:int64 -> payload:string -> value list
(** Reassemble the full row, key column included. *)

val key_of : value list -> int64
(** The key column of a full row.  Raises {!Type_error}. *)

val equal_value : value -> value -> bool
val to_string : value -> string
