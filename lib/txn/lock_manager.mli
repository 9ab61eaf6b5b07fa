(** Hierarchical two-phase locking.

    Tables take intention locks ([IS]/[IX]) or full [S]/[X] locks (DDL);
    rows take [S]/[X].  The engine is cooperative, so a conflicting request
    raises {!Lock_conflict} rather than blocking; the §6.3 experiment
    interleaves work at transaction boundaries, which keeps conflicts out of
    the simulated schedules by construction while the matrix is still
    enforced and tested. *)

type t

type mode = IS | IX | S | X

type resource =
  | Table of int  (** table id *)
  | Row of int * int64  (** table id, key *)

exception Lock_conflict of resource

val create : unit -> t

val acquire : t -> Rw_wal.Txn_id.t -> resource -> mode -> unit
(** Grant or upgrade; re-granting an already-held compatible mode is a
    no-op.  Raises {!Lock_conflict} when another transaction holds an
    incompatible mode. *)

val release_all : t -> Rw_wal.Txn_id.t -> unit
val holds : t -> Rw_wal.Txn_id.t -> resource -> mode -> bool
val compatible : mode -> mode -> bool
val lock_count : t -> int
(** (test support: the lock tests check grants, the compatibility matrix
    and release.) *)
