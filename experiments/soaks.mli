(** The three soak campaigns: crash-point fault injection, replication
    faults and what-if selective undo.  Each runs one {!Twin.row} per
    (seed, scenario) against an oracle, so tests and the CLI's [faultsoak],
    [replsoak] and [whatifsoak] commands can assert on the rows; the
    experiment table runs them as [faults], [e10] and [e11]. *)

(** {2 Fault-injection campaign} *)

val crash_repair_campaign :
  ?instant:bool ->
  ?seeds:int list ->
  ?crash_points:int ->
  ?quick:bool ->
  unit ->
  Twin.row list
(** At [crash_points] seed-derived crash points per seed (defaults: 3
    seeds x 4 points): run TPC-C under an active fault plan, crash after
    that many committed transactions (with one more left in flight),
    recover, scrub, and compare with a fault-free oracle run driven by the
    same seed.  With [instant] (test support: the CLI soak never sets it)
    the reopen uses instant restart, and the loser-gone and a stock-level
    probe are also checked {e during} the recovery backlog, before it is
    drained.  Each row is labelled
    [after <txns>]; counts [crash_lsn], [injected], [detected],
    [repaired], [retries], [quarnt] (pages quarantined), [torn] (1 when
    recovery truncated a torn log tail), [cmp_pages]; checks [cons]
    (TPC-C invariants), [loser] (the in-flight transaction left no
    trace), [state] (rows equal the oracle's), [asof] (a mid-history
    as-of query equals the oracle's), [pages] (every allocated page
    equals the oracle's, page LSN masked), [unquar] (nothing
    quarantined). *)

val faults : quick:bool -> unit -> unit
(** The campaign at its default seeds, under a header naming the fault
    plan's rates. *)

(** {2 Replication fault campaign} *)

type repl_scenario =
  | Crash_mid_catchup
      (** replica killed mid-catch-up; resumes from its persisted recovery
          checkpoint, redo-only *)
  | Sustained_lag
      (** faulty link pumped once per traffic batch: the replica stays
          behind all run and still converges *)
  | Partition_heal  (** partition exhausts retries to [Disconnected]; heal reconnects *)
  | Failover_rejoin
      (** primary dies with an unshipped tail; the replica is promoted and
          the demoted primary rejoins by truncating its divergent tail *)

val repl_scenarios : repl_scenario list
val repl_scenario_name : repl_scenario -> string

val repl_soak_campaign : ?seeds:int list -> ?quick:bool -> unit -> Twin.row list
(** Every scenario at each seed (default 3 seeds), against a fault-free
    single-node oracle driven by the same seed.  Rows are labelled with
    the scenario name; counts [txns], [shipped], [retries], [lag_max]
    (segments), [cmp_pages]; checks [stress] (the scenario's fault
    fired), [conv] (the shipper ended [Caught_up]), [state], [pages]
    (page LSN masked against the oracle; compared between the two nodes
    of a failover pair), [asof]. *)

(** {2 What-if selective-undo campaign}

    The workload is a deterministic single-table history of blind
    fixed-size updates whose page-level dependency structure is chosen by
    construction (cells are spaced so distinct cells never share a B-tree
    leaf), which makes the replay-from-scratch oracle valid at page
    granularity. *)

type whatif_scenario =
  | Wf_chain  (** every transaction shares a cell with its successor *)
  | Wf_independent  (** every transaction writes a private cell *)
  | Wf_mixed  (** even transactions chain; odd ones are independent *)

val whatif_scenarios : whatif_scenario list
val whatif_scenario_name : whatif_scenario -> string

val whatif_soak_campaign : ?seeds:int list -> ?quick:bool -> unit -> Twin.row list
(** Every scenario at each seed (default 3 seeds): run the deterministic
    history, pick a mid-history victim, publish a what-if view, crash
    with an in-flight update in the log tail and reopen, repair the
    reopened database in place, and verify against the
    replay-minus-victim oracle.  Rows are labelled with the scenario
    name; counts [history], [closure] (victim + dependents), [replay],
    [pages] (rewound by the repair), [ops] (replayed), [cmp_pages];
    checks [reopen] (the graph rebuilt after the reopen equals the
    pre-crash one, nodes and edges), [scope] (dependent set is the
    constructed one),
    [view], [repaired], [state] (repaired rows), [pages] (page LSN masked), [asof]
    (a pre-victim as-of query survives the repair). *)

val wf_history :
  ?media:Rw_storage.Media.t ->
  seed:int ->
  cells:int ->
  scenario:whatif_scenario ->
  chain_limit:int ->
  history:int ->
  skip:int option ->
  unit ->
  Rw_engine.Engine.t * Rw_engine.Database.t * float array * Rw_wal.Txn_id.t array
(** A fresh engine (RAM media by default) with [cells] cells loaded and
    checkpointed, then the recorded history: one update transaction per
    epoch, chains stopping at [chain_limit] so the victim's dependent set
    stays fixed as [history] grows.  With [skip] the history omits that
    epoch: the replay-from-scratch oracle.  Returns the engine, the
    database, each epoch's post-commit wall time and the ids the history
    committed, in commit order. *)
