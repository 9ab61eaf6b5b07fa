(** Shared/exclusive page latches.

    The engine is single-process and cooperative, so latches never block;
    they exist to enforce the same discipline the paper's engine relies on —
    every page modification happens under an exclusive latch, which is what
    makes the per-page log-record chain totally ordered (paper §4.1).
    Violations raise instead of deadlocking. *)

type t

type mode = Shared | Exclusive

exception Latch_conflict

val create : unit -> t

val is_free : t -> bool

val acquire : t -> mode -> unit
(** Raises {!Latch_conflict} when [mode] conflicts with the holders. *)

val release : t -> mode -> unit
(** Give back one hold of [mode]; raises [Invalid_argument] if none is held. *)

val with_latch : t -> mode -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exceptions).  (test support: the pool
    runs {!acquire} and {!release} itself, so as to allocate no closure.) *)
