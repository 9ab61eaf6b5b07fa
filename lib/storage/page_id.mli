(** Page identifiers.

    Pages of a database file are numbered densely from 0.  [nil] (= -1)
    denotes "no page" and is used for null links in B-trees and catalogs. *)

type t

val nil : t
val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val of_int64 : int64 -> t
val to_int64 : t -> int64
val is_nil : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val next : t -> t
(** (test support: pinned by the id arithmetic test.) *)
