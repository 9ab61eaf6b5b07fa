(** Page identifiers.

    Pages of a database file are numbered densely from 0.  [nil] (= -1)
    denotes "no page" and is used for null links in B-trees and catalogs.
    The int form is also the stored form: page headers, rows and log
    records hold [to_int] in an 8-byte field, a null link as -1. *)

type t

val nil : t

val of_int : int -> t
(** [of_int (-1)] is {!nil}.  Raises [Invalid_argument] below -1. *)

val to_int : t -> int
(** [to_int nil] is -1. *)

val is_nil : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val next : t -> t
(** (test support: pinned by the id arithmetic test.) *)
