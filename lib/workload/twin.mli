(** The twin-oracle harness behind the soaks and the experiment
    self-checks.

    A campaign runs a workload on the engine under test and on a twin —
    either an oracle built independently from the same seed, or a peer
    that replayed the same log — and compares the two three ways: every
    row of every table ({!dump}), every allocated page in canonical form
    ({!page_diff}), and an as-of query at each twin's own wall time
    ({!asof_agrees}).  Each run reports one {!row} of named counts and
    named checks; experiments that assert across runs accumulate their
    verdicts in a {!self_check}. *)

module Database = Rw_engine.Database

val run_history : Database.t -> int -> (int -> unit) -> float array
(** [run_history db n step] runs [step 0] .. [step (n - 1)], each after a
    1 ms idle gap on [db]'s clock, and returns the wall time after each
    step.  The gaps keep commit wall times distinct even on media that
    price no latency, so every step boundary is a well-defined as-of
    point. *)

val dump : Database.t -> (string * Rw_engine.Row.value list list) list
(** Every row of every table in {!Database.tables}, in scan order. *)

val now : Database.t -> Database.t * float
(** The twin at its current wall time. *)

val page_diff : mask_lsn:bool -> Database.t * float -> Database.t * float -> int * int
(** [page_diff ~mask_lsn (a, wall_a) (b, wall_b)] is [(compared,
    differing)] over the union of pages allocated on either twin's disk
    ([Disk.has_page] below [Disk.page_count]): each page's canonical image
    ({!Rw_core.As_of_snapshot.page_string}) in an unshared snapshot of
    each twin at its own wall time.  Compare page LSNs
    ([mask_lsn:false]) when both twins replayed the same log; mask them
    against an independently built oracle, whose checkpoints and repairs
    put its records at other LSNs.  Both snapshots are dropped. *)

val asof_agrees :
  ?probe:(Database.t -> 'a) -> Database.t * float -> Database.t * float -> bool
(** [asof_agrees (a, wall_a) (b, wall_b)] opens an unshared snapshot of
    each twin at its own wall time and compares their {!dump}s and, when
    given, the [probe] answers; both snapshots are dropped. *)

(** {2 Campaign rows} *)

type row = {
  seed : int;
  label : string;  (** the scenario, or the crash point *)
  counts : (string * int) list;  (** printed in order, one column each *)
  checks : (string * bool) list;  (** every one must hold *)
}

val ok : row -> bool
(** Every check holds. *)

val count : row -> string -> int
val check : row -> string -> bool
(** Named lookups; raise [Not_found] for a name the row does not carry. *)

val report : what:string -> row list -> bool
(** Print the rows as one table (columns from the first row) and
    ["k/n <what> passed"]; true when every row is {!ok}. *)

(** {2 Self-checks} *)

type self_check

val self_check : string -> self_check
(** A fresh verdict accumulator for the experiment of that name. *)

val expect : self_check -> string -> bool -> unit
(** Record one named check, printing [FAIL <name>] when it does not
    hold. *)

val passed : self_check -> bool

val finish : self_check -> unit
(** Print ["<name> self-checks: PASS"] or [FAIL]; exit 1 on failure. *)
