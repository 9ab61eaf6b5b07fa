(** Selective transaction undo with dependency-aware replay.

    Surgically removes one committed {e victim} transaction from the
    database: only the pages in the victim's downstream closure
    ({!Dep_graph.closure}) are rewound — each to just before the removed
    set's first write — and the closure's other members are re-applied
    in commit order with key-aware anchoring, so every independent
    transaction is untouched and pays nothing.  The cost scales with the
    dependent set, not with history length (experiment e11).

    The result is published two ways:
    - {!repair}: in place, as one compensating transaction logged
      through the ordinary write path ([Access_ctx.modify]) — the
      repaired history recovers and replicates like any other;
    - {!what_if_view}: as a read-only database view over a sparse side
      file of repaired images, attached to the engine for querying
      ([REWIND TRANSACTION t AS name] / [\whatif]).

    Exactness caveats (docs/WHATIF.md): dependencies are page-granular
    (conservatively wide), and replay re-applies logged after-images,
    which equals re-execution only for writes that do not compute on the
    victim's data.  Anything outside the replayable envelope —
    structural operations in the removed set, non-B-tree replay targets,
    a cut below the retention window, replay anchors that do not
    resolve — is refused as a conflict, never applied partially. *)

type scope =
  | Dependents  (** the victim's transitive dependents — the normal mode *)
  | All_successors
      (** every transaction committed after the victim — the
          full-database-rewind baseline e11 compares against *)

type conflict = {
  page : Rw_storage.Page_id.t;  (** [Page_id.nil] for whole-transaction conflicts *)
  lsn : Rw_storage.Lsn.t;
  reason : string;
}

type stats = {
  closure_size : int;  (** |D|: victim plus replayed transactions *)
  replayed_txns : int;
  pages_rewound : int;
  ops_unwound : int;  (** modifications undone by the page rewinds *)
  ops_replayed : int;  (** replay-set operations re-applied *)
}

exception Unknown_txn of Rw_wal.Txn_id.t
(** The victim is not a committed transaction in the dependency graph. *)

val preview :
  ctx:Rw_access.Access_ctx.t ->
  log:Rw_wal.Log_manager.t ->
  graph:Dep_graph.t ->
  victim:Rw_wal.Txn_id.t ->
  ?scope:scope ->
  unit ->
  (stats, conflict list) result
(** Dry run: plan the removal and compute every target image on scratch
    copies, touching neither the database nor the engine.  Returns the
    stats the real {!repair}/{!what_if_view} would report — the
    costing path e11 and the microbenchmarks price.  Raises
    {!Unknown_txn}. *)

val repair :
  ctx:Rw_access.Access_ctx.t ->
  log:Rw_wal.Log_manager.t ->
  graph:Dep_graph.t ->
  victim:Rw_wal.Txn_id.t ->
  ?scope:scope ->
  wall_us:float ->
  ?on_progress:(int -> unit) ->
  unit ->
  (stats, conflict list) result
(** Remove the victim in place.  All target images are computed on
    scratch copies first; only a fully conflict-free plan touches the
    database, as one transaction whose per-page row diffs are logged
    through the ordinary write path (crash during the repair rolls it
    back like any other transaction).  [on_progress i] fires before page
    [i] of the repair is applied — the crash-injection hook tests use.
    Raises {!Unknown_txn}. *)

val what_if_view :
  engine:Rw_engine.Engine.t ->
  db:Rw_engine.Database.t ->
  graph:Dep_graph.t ->
  victim:Rw_wal.Txn_id.t ->
  name:string ->
  (Rw_engine.Database.t * stats, conflict list) result
(** Publish the victim-free state as a read-only view named [name],
    attached to [engine]: reads of affected pages hit the sparse side
    file of repaired images, everything else falls through to the live
    database.  Raises {!Unknown_txn}. *)
