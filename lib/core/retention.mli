(** Log retention (paper §4.3: [ALTER DATABASE ... SET UNDO_INTERVAL]).

    Page-oriented undo needs the transaction log kept for as long as users
    may want to rewind.  Enforcement truncates the log below the newest
    checkpoint older than the retention window — keeping one extra
    checkpoint of slack so that transactions in flight at the boundary can
    still be analysed and undone. *)

type t

val create : unit -> t
(** No retention bound by default (keep everything). *)

val set_interval : t -> float option -> unit
val interval : t -> float option

val register_floor : t -> name:string -> (unit -> Rw_storage.Lsn.t option) -> unit
(** Install (or replace) a named truncation floor.  Each floor is polled at
    {!cutoff} time; the cut never rises above any floor that returns
    [Some lsn], so history a consumer still needs — e.g. sealed segments an
    attached replica has not yet shipped — survives aggressive retention.
    A floor returning [None] abstains. *)

val unregister_floor : t -> name:string -> unit
(** Remove a named floor (no-op if absent) — a detached replica no longer
    pins the log. *)

val cutoff : t -> log:Rw_wal.Log_manager.t -> now_us:float -> Rw_storage.Lsn.t option
(** The LSN below which the log is no longer needed, if any — the
    retention-window cut clamped by every registered floor.  (test
    support: the engine calls {!enforce}; the tests read the cut before
    truncating.) *)

val enforce : t -> log:Rw_wal.Log_manager.t -> now_us:float -> Rw_storage.Lsn.t option
(** Truncate and return the new lower boundary (or [None] if nothing could
    be truncated). *)
