(** Fixed-capacity LRU set of integer keys.

    Used as the log-block cache: membership means "this log region is in
    memory and reading it stalls on no I/O". *)

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

(** Value-carrying LRU bounded by total weight in bytes — the decoded
    log-record cache.  {!add_node} evicts least-recently-used entries until
    the budget is met again; an entry heavier than the whole budget is
    simply not cached. *)
module Weighted : sig
  type 'a t

  val create : capacity_bytes:int -> 'a t
  (** Raises [Invalid_argument] if the capacity is < 1. *)

  type 'a node
  (** Handle to a cache slot, for callers that keep their own pointer to
      the entry and want hit/touch without a table lookup. *)

  val add_node : 'a t -> int -> weight:int -> 'a -> 'a node
  (** Insert or replace, evict LRU entries until within budget, and return
      the slot handle.  An entry too heavy to cache yields a dead handle
      ({!alive} is false). *)

  val alive : 'a node -> bool
  (** False once the slot has been evicted or removed — the handle is
      stale and the value must be re-fetched. *)

  val node_value : 'a node -> 'a
  val touch : 'a t -> 'a node -> unit
  (** Make a (live) slot the most recently used; no-op on a dead one. *)

  val remove : 'a t -> int -> unit
  val size_bytes : 'a t -> int
  val entry_count : 'a t -> int
  val clear : 'a t -> unit
  (** (test support: [entry_count] and [clear] have no engine caller; the
      weighted LRU test checks them.) *)
end
