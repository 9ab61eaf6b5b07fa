(** Transaction dependency graph over the committed history.

    One node per committed, non-aborted transaction retained in the log;
    a directed edge links consecutive distinct writers of each page, in
    first-write LSN order (earlier writer -> later writer).  The
    transitive closure of a node therefore contains every committed
    transaction whose reads-from/overwrites chain can reach back to it
    at page granularity — the set that must be replayed when the node is
    surgically removed ({!Selective}).

    Page granularity is deliberately conservative: transactions that
    touched disjoint rows of one page, and predicate reads whose phantom
    range spans a written page, both become edges.  False edges only
    enlarge the replay set; they never cause a missed dependency.  See
    docs/WHATIF.md for the construction rules and exactness caveats. *)

type node = Rw_wal.Log_manager.txn_summary
(** A node is the transaction's write-set summary.  A structural one is
    not removable, and is a conflict inside a replay closure. *)

type t

val build : log:Rw_wal.Log_manager.t -> t
(** Build the graph from the log's write-set index
    ({!Rw_wal.Log_manager.txn_summaries}): O(transactions + write-set
    size + edges), with no log scan. *)

val node_count : t -> int
val edge_count : t -> int

val built_from_index : t -> bool
(** Always [true]: the index stays exact through every log mutation, so
    no graph needs a rebuild scan.  Kept because the benchmark harness
    reports the share of graphs built from the index. *)

val nodes : t -> node list
(** All nodes, ascending by commit LSN (serialization order). *)

val find : t -> Rw_wal.Txn_id.t -> node option

val dependents : t -> Rw_wal.Txn_id.t -> node list
(** Direct successors only. *)

val closure : t -> Rw_wal.Txn_id.t -> node list
(** The transaction plus its transitive dependents, ascending by commit
    LSN.  Empty if the transaction is not in the graph. *)

val successors : t -> Rw_wal.Txn_id.t -> node list
(** The transaction plus {e every} transaction that committed after it,
    ascending by commit LSN — the scope of a full-database rewind, used
    as the baseline {!Selective} compares against. *)
