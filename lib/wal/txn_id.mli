(** Transaction identifiers.

    [nil] (= 0) marks log records not attributed to any transaction
    (checkpoints, system-internal page operations). *)

type t

val nil : t
val of_int : int -> t
val to_int : t -> int
val is_nil : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val next : t -> t
