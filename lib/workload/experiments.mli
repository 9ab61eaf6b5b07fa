(** Reproduction harnesses for the paper's evaluation (§6).

    One entry per figure/section; each prints the same series the paper
    plots.  Absolute numbers differ (the substrate is a simulator at MB
    scale, not a 40 GB testbed), but the shapes the paper argues from hold:
    FPI logging costs log space but little throughput (Figs. 5-6), as-of
    queries beat full restore by orders of magnitude and degrade linearly
    with time travelled (Figs. 7-10), undo I/Os grow linearly (Fig. 11),
    concurrent as-of queries reduce but do not cripple throughput (§6.3),
    and a crossover exists when enough data is accessed (§6.4). *)

type figure =
  | Fig5  (** log space overhead vs FPI frequency N *)
  | Fig6  (** throughput impact vs FPI frequency N *)
  | Fig7  (** restore vs as-of query, SSD *)
  | Fig8  (** restore vs as-of query, SAS *)
  | Fig9  (** snapshot creation vs query time, SSD *)
  | Fig10  (** snapshot creation vs query time, SAS *)
  | Fig11  (** estimated undo log I/Os vs time back *)
  | Sec6_3  (** throughput with a concurrent as-of query loop *)
  | Sec6_4  (** crossover: log rewind vs backup roll-forward *)
  | E8
      (** §6.3 at scale: TPC-C writer sessions interleaved with fleets of
          0/1/4/16 concurrent as-of reader sessions (each at its own
          SplitLSN, reading through the shared prepared-page cache);
          prints the writer-tpmC degradation curve and self-checks every
          reader byte-equal to a solo (uncached) snapshot — exits
          non-zero on mismatch *)
  | E9
      (** instant restart: time-to-first-query and time-to-full-recovery
          vs log length, full-replay restart next to analysis-only instant
          restart with first-touch recovery; self-checks queries issued
          during the backlog (and the drained end state) against the fully
          recovered twin — exits non-zero on mismatch *)
  | E10
      (** log-shipping replication: a writer fleet with the shipper as the
          scheduler's background service (lag rises and drains on one
          deterministic clock), then the replica fault campaign — crash
          mid-catch-up, sustained lag, network partition, failover+rejoin —
          each converging to a fault-free single-node oracle (rows, every
          allocated page in canonical form with the page LSN masked, an
          as-of query); exits non-zero on divergence *)
  | E11
      (** what-if queries: selectively remove one committed transaction
          and replay only its dependency closure ([Rw_whatif]); as
          history grows, selective replay cost stays pinned to the fixed
          dependent set while the full-database-rewind baseline
          ([All_successors]) grows linearly — both verified equal
          (logical rows + every allocated page in canonical form, page
          LSN masked) against an oracle
          built by replaying the recorded history minus the victim from
          scratch; exits non-zero on any inequality *)
  | E12
      (** domain-parallel batched as-of preparation: the staged
          gather/apply/publish pipeline behind
          [As_of_snapshot.materialize_batch] swept at fan-out 1/2/4/8
          over a growing snapshot page count at the cold-chain operating
          point; reports modeled (simulated-clock) elapsed per fan-out
          and self-checks every run byte-identical (canonical pages) to
          a serial twin — exits non-zero on divergence or if fan-out 4
          fails to beat serial by 2x at the largest scale *)
  | Ablation
      (** design-choice ablations: FPI frequency, log cache size, page- vs
          transaction-oriented undo, and proactive copy-on-write snapshots
          vs the on-demand rewind (§7.1) *)
  | Faults
      (** fault-injection campaign: random crash points under torn writes,
          bit rot, transient I/O errors and torn log tails; verifies
          detection, log-based repair and oracle agreement *)
  | Explain
      (** per-query rewind cost (pages rewound, records undone, log bytes
          read) vs time back — the paper's proportional-cost claim as an
          EXPLAIN table *)
  | Segments
      (** segmented log storage long-run: with retention on, modeled
          resident log memory ([log.resident_bytes]) plateaus while total
          appended bytes grow linearly — the bounded-memory claim of the
          sealed-segment log manager *)

val of_string : string -> figure option

val run : ?quick:bool -> figure -> unit
(** Run one experiment and print its table to stdout.  [quick] shrinks the
    workload for smoke runs. *)

val run_all : ?quick:bool -> unit -> unit

(** {2 Fault-injection campaign}

    The crash-point property harness behind {!figure.Faults}, exposed so
    tests and the CLI [faultsoak] command can assert on the rows. *)

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

(** {2 Replication fault campaign}

    The scenario harness behind {!figure.E10}, exposed so tests and the
    CLI [replsoak] command can assert on the rows. *)

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

    The property harness behind {!figure.E11}, exposed so tests and the
    CLI [whatifsoak] command can assert on the rows.  The workload is a
    deterministic single-table history of blind fixed-size updates whose
    page-level dependency structure is chosen by construction (cells are
    spaced so distinct cells never share a B-tree leaf), which makes the
    replay-from-scratch oracle valid at page granularity. *)

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
