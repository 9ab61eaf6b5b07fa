(** Transaction identifiers.

    [nil] (= 0) marks log records not attributed to any transaction
    (checkpoints, system-internal page operations). *)

type t

val nil : t
val of_int : int -> t
val to_int : t -> int
val of_int64 : int64 -> t
val to_int64 : t -> int64
val is_nil : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val next : t -> t
