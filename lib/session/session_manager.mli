(** Multi-session scheduler (paper §6.3 at scale).

    Interleaves many OLTP writer sessions with a fleet of concurrent as-of
    reader sessions over one engine, round-robin on the simulated clock:
    each {!run} round gives every live session one step, and a session's
    cost is the simulated time its step consumed.  Readers therefore steal
    engine time from writers exactly as in the paper's concurrent-query
    experiment, while runs stay deterministic.

    Sessions are workload-agnostic step closures.  Writers step against
    the primary database; each reader holds its own {!Rw_core.As_of_snapshot}
    at its own SplitLSN, opened (by default) through the database's shared
    prepared-page cache so overlapping readers amortise chain rewinds.
    The [sessions.live] gauge tracks open sessions. *)

type t

type session

val create : Rw_engine.Database.t -> t
(** A manager over one primary database.  Raises [Invalid_argument] on a
    read-only view. *)

val open_writer : t -> name:string -> step:(Rw_engine.Database.t -> unit) -> session
(** Register a writer session; [step] receives the primary database.
    [name] only mirrors {!open_reader}'s: a writer keeps no name. *)

val open_reader :
  t -> name:string -> wall_us:float -> step:(Rw_engine.Database.t -> unit) -> session
(** Open an as-of snapshot at [wall_us] that reads through the shared
    prepared-page cache (see {!Rw_engine.Database.create_as_of_snapshot})
    and register a reader session whose [step] receives the snapshot
    view.  Raises {!Rw_core.Split_lsn.Out_of_retention} like snapshot
    creation does. *)

val close : t -> session -> unit
(** Remove the session from the rotation; a reader's snapshot is dropped
    (sparse side file released).  Idempotent. *)

val set_service : t -> (unit -> unit) option -> unit
(** Install (or clear) a background duty that {!run} invokes once per
    round, after every live session has stepped — e.g. a replication
    shipper pumping one catch-up unit ({!Rw_repl.Shipper.step}), so
    replica lag tracks foreground traffic inside the same deterministic
    schedule. *)

val run : t -> rounds:int -> unit
(** Round-robin interleave: [rounds] times, give every live session one
    step in open order.  Sessions opened by a step join the next round;
    sessions closed by a step stop stepping immediately.  After each round,
    if the primary carries an instant-restart backlog
    ({!Rw_engine.Database.recovery_backlog}), a background sweeper retires a
    few of its pages, so recovery completes even without traffic. *)

(** {1 Introspection} *)

val live_count : t -> int
(** (test support: the session tests check open and close.) *)

val view : session -> Rw_engine.Database.t
(** The session's database view: the primary for writers, the snapshot
    view for readers. *)
