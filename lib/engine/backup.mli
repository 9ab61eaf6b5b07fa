(** Traditional full backup and point-in-time restore — the baseline the
    paper's scheme is measured against (Figures 7 and 8).

    A backup is a checkpoint-consistent copy of every database page.
    Restore writes the full copy back to a fresh set of files, replays the
    transaction log forward to the requested point in time and rolls back
    transactions in flight there.  Its cost is dominated by the database
    size and is essentially independent of the restore point — the flat
    lines in the paper's charts. *)

type t

val take : Database.t -> t
(** Checkpoint, then stream every page out sequentially. *)

val taken_at_lsn : t -> Rw_storage.Lsn.t
val wall_us : t -> float
val size_bytes : t -> int

val restore_as_of : t -> from:Database.t -> wall_us:float -> Database.t
(** Materialise a read-only copy of [from] as of [wall_us] by full restore +
    forward log replay.  Raises [Invalid_argument] if [wall_us] precedes the
    backup. *)
