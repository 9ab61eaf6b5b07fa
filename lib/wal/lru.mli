(** Fixed-capacity LRU set of integer keys.

    Used as the log-block cache, the log's only cache: membership means
    "this log region is in memory and reading it stalls on no I/O". *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if capacity < 1. *)

val mem : t -> int -> bool
(** Membership test; does not touch recency. *)

val use : t -> int -> bool
(** [use t k] returns whether [k] was present, and in all cases makes [k]
    the most recently used entry (inserting it, evicting the LRU entry if at
    capacity). *)

val remove : t -> int -> unit
val size : t -> int
val capacity : t -> int
val clear : t -> unit
(** (test support: [remove], [size] and [clear] have no engine caller; the
    LRU test checks them.) *)
