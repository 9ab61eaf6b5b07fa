(** Primary failure: promote the most-caught-up replica, rejoin the old
    primary as a replica.

    Ordering (DESIGN.md §13): first record the promotion horizon — the
    promoted replica's end of log, which is the {e divergence point}: every
    record below it is shared history, everything the dead primary wrote at
    or above it never shipped and therefore never committed on the
    surviving timeline.  Then the replica runs one full restart recovery
    (tail repair, redo, loser undo {e with} CLRs, fresh checkpoint) — now
    it is a primary and owns the log stream, so appending is finally
    allowed.  A demoted primary that comes back {!rejoin}s by truncating
    its divergent tail at the horizon, rewinding any page written ahead of
    it from the retained log, and resuming committed-only catch-up redo as
    an ordinary replica of the new primary. *)

val most_caught_up : Replica.t list -> Replica.t
(** The replica with the highest ingested LSN (the failover candidate).
    Raises [Invalid_argument] on an empty list. *)

val promote : Replica.t -> Rw_engine.Database.t * Rw_storage.Lsn.t
(** Promote the replica to primary.  Returns the new primary engine and
    the promotion horizon (the divergence point to pass to {!rejoin}).
    The replica handle must not be used afterwards.  Bumps the
    [repl.failovers] probe. *)

val rejoin : name:string -> at:Rw_storage.Lsn.t -> Rw_engine.Database.t -> Replica.t
(** Bring the demoted (crashed) primary back as a replica: discard
    volatile state, truncate the log at the divergence point [at], rewind
    every disk page stamped at or past [at] from the retained log
    ({!Rw_recovery.Page_repair.rebuild}; a page born on the divergent
    timeline resets to a never-written page), and reopen redo-only.
    Attach a {!Shipper} against the new primary to resume catch-up.
    Raises {!Rw_recovery.Page_repair.Unrepairable} if retained history
    cannot rewind some pre-divergence page (re-seed with
    {!Replica.of_primary} instead). *)
