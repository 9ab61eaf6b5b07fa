(** The "generalized system" sketched in the paper's §6.4: given backups
    taken at predetermined points and the transaction log, reach a past
    point in time by whichever route is estimated cheaper — rolling a
    backup {e forward} (traditional restore) or rolling the current state
    {e backward} (the paper's as-of rewind).

    Estimates come from the same media cost model the engine runs on: the
    rewind's cost is dominated by random log reads proportional to the
    data that will be touched and the distance travelled; the restore's by
    sequentially moving the whole database plus the replay span.  The
    [pages_hint] parameter is the caller's guess at how many pages the
    subsequent queries will touch — the quantity the paper identifies as
    the crossover variable. *)

type route = Rewind | Roll_forward of Backup.t

type plan = {
  route : route;
  rewind_estimate_s : float;
  restore_estimate_s : float;  (** infinity when no usable backup exists *)
}

val plan : db:Database.t -> backups:Backup.t list -> wall_us:float -> pages_hint:int -> plan
(** Estimate both routes to the state as of [wall_us] and pick the
    cheaper.  Only backups taken at or before [wall_us] are considered. *)

val materialise : db:Database.t -> name:string -> wall_us:float -> plan -> Database.t
(** Execute the chosen route; returns a read-only view as of [wall_us].
    (test support: no shell path executes a plan; the tests check that
    both routes give the same view.) *)

val warm : Database.t -> int
(** Batch-materialize every page that changed after the view's split point
    into its sparse file ({!Rw_core.As_of_snapshot.materialize_batch}),
    so subsequent scans never rewind on the fly.  Returns the number of
    pages materialized; no-op (0) on a primary database or a restored
    backup. *)

val pp_plan : Format.formatter -> plan -> unit
