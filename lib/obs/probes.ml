(* The engine's metric instruments, registered eagerly in one place.

   Keeping every instrument here (rather than at the top of each
   instrumented module) matters for linking: OCaml only links archive
   modules that are referenced, so registration scattered across modules
   would run — and the name set would differ — depending on which
   executable is being built.  Any program that touches one probe sees
   the complete registry. *)

let counter = Metrics.counter
let gauge = Metrics.gauge
let histogram = Metrics.histogram

(* WAL *)

let log_appends =
  counter ~unit_:"records" ~help:"Log records appended" "log.appends"

let log_append_bytes =
  counter ~unit_:"bytes" ~help:"Encoded bytes appended to the log" "log.append_bytes"

let flush_batch_bytes =
  histogram ~unit_:"bytes" ~help:"Bytes written per physical log flush batch"
    "log.flush_batch_bytes"

let log_resident_bytes =
  gauge ~unit_:"bytes"
    ~help:"Modeled RAM held by the log: unspilled segment payloads plus per-segment index overhead"
    "log.resident_bytes"

let log_segments_sealed =
  counter ~unit_:"segments" ~help:"Log segments sealed (tail reached the segment size)"
    "log.segments_sealed"

let log_segments_spilled =
  counter ~unit_:"segments" ~help:"Sealed log segments spilled to media (payload left RAM)"
    "log.segments_spilled"

let log_segments_loaded =
  counter ~unit_:"blocks" ~help:"Cold block loads serving reads of spilled log segments"
    "log.segments_loaded"

let log_segments_dropped =
  counter ~unit_:"segments" ~help:"Whole log segments dropped by retention truncation"
    "log.segments_dropped"

(* Transactions *)

let commits = counter ~unit_:"txns" ~help:"Transactions committed durably" "txn.commits"

let commit_latency_us =
  histogram ~unit_:"us"
    ~help:"Simulated time from commit request to durability ack (group commit wait included)"
    "txn.commit_latency_us"

(* Buffer pool *)

let fetch_hits = counter ~unit_:"fetches" ~help:"Buffer-pool fetches served from memory" "buf.fetch_hits"
let fetch_misses = counter ~unit_:"fetches" ~help:"Buffer-pool fetches that read the source" "buf.fetch_misses"
let evictions = counter ~unit_:"pages" ~help:"Pages evicted from the buffer pool" "buf.evictions"
let writebacks = counter ~unit_:"pages" ~help:"Dirty pages written back to the source" "buf.writebacks"

(* Catalog *)

let catalog_walks =
  counter ~unit_:"walks"
    ~help:"Catalog lookups that walked the catalog B-tree (the recorded walk's pages were not all resident at their LSNs)"
    "catalog.walks"

(* Page rewind (as-of) *)

let page_rewinds =
  counter ~unit_:"pages" ~help:"prepare_page_as_of invocations (pages rewound)" "undo.page_rewinds"

let ops_undone =
  counter ~unit_:"ops" ~help:"Row operations undone while rewinding pages" "undo.ops_undone"

let chain_length =
  histogram ~unit_:"records" ~help:"Log records read per page rewind (chain walk length)"
    "undo.chain_length"

let walk_fallbacks =
  counter ~unit_:"pages"
    ~help:"Page rewinds whose gathered plan was not ok or was rejected, redone by the pointer walk"
    "undo.walk_fallbacks"

(* Recovery *)

let recovery_runs = counter ~unit_:"runs" ~help:"Restart recoveries performed" "recovery.runs"
let recovery_redone = counter ~unit_:"ops" ~help:"Operations replayed by the redo pass" "recovery.redone_ops"
let recovery_undone = counter ~unit_:"ops" ~help:"Loser operations rolled back by the undo pass" "recovery.undone_ops"

let recovery_pages_on_demand =
  counter ~unit_:"pages" ~help:"Backlog pages recovered on first touch during instant restart"
    "recovery.pages_on_demand"

let recovery_redo_partitions =
  counter ~unit_:"partitions" ~help:"Domains that ran log-scan redo batches (one per domain per batch)"
    "recovery.redo_partitions"

let recovery_backlog =
  gauge ~unit_:"pages" ~help:"Pages still awaiting redo/undo after an instant restart"
    "recovery.backlog"

(* Domain pool *)

let pool_tasks =
  counter ~unit_:"tasks" ~help:"Participant slots executed by shared-pool runs (caller included)"
    "pool.tasks"

let pool_wakes =
  counter ~unit_:"wakes" ~help:"Parked worker domains woken by shared-pool runs"
    "pool.wakes"

(* As-of snapshots *)

let snapshot_creates = counter ~unit_:"snapshots" ~help:"As-of snapshots created" "snapshot.creates"

let snapshot_pages_materialized =
  counter ~unit_:"pages" ~help:"Past page versions materialised into side files"
    "snapshot.pages_materialized"

let snapshot_side_hits =
  counter ~unit_:"reads" ~help:"Snapshot reads served from the sparse side file"
    "snapshot.side_file_hits"

let snapshot_loser_scans =
  counter ~unit_:"scans"
    ~help:"Loser-analysis scans run at as-of creation or restore because the control-record directory showed a transaction in flight (or could not decide)"
    "snapshot.loser_scans"

let snapshots_live =
  gauge ~unit_:"snapshots" ~help:"As-of snapshots currently open" "snapshot.live"

let snapshot_shared_hits =
  counter ~unit_:"pages"
    ~help:"Prepared-page cache hits: a rewound page was reused (or delta-extended) by a later snapshot"
    "snapshot.shared_hits"

let snapshot_parallel_pages =
  counter ~unit_:"pages"
    ~help:"Pages rewound by the staged batch pipeline's apply (a pool miss is a batch of one); walk fallbacks excluded"
    "snapshot.parallel_pages"

let snapshot_shared_misses =
  counter ~unit_:"pages"
    ~help:"Prepared-page cache misses: the full chain rewind ran for the page"
    "snapshot.shared_misses"

(* Sessions *)

let sessions_live =
  gauge ~unit_:"sessions"
    ~help:"Writer and as-of reader sessions currently open in session managers"
    "sessions.live"

(* What-if (selective transaction undo) *)

let whatif_graph_builds =
  counter ~unit_:"graphs" ~help:"Transaction dependency graphs built from the log"
    "whatif.graph_builds"

let whatif_graph_edges =
  counter ~unit_:"edges" ~help:"Dependency edges added across all dependency-graph builds"
    "whatif.graph_edges"

let whatif_rewinds =
  counter ~unit_:"rewinds"
    ~help:"Selective transaction rewinds executed (in-place repairs and what-if views)"
    "whatif.rewinds"

let whatif_pages_rewound =
  counter ~unit_:"pages"
    ~help:"Pages rewound to their dependency-cut LSN by selective rewinds"
    "whatif.pages_rewound"

let whatif_ops_replayed =
  counter ~unit_:"ops"
    ~help:"Dependent-transaction operations re-applied by dependency-aware replay"
    "whatif.ops_replayed"

let whatif_conflicts =
  counter ~unit_:"rewinds"
    ~help:"Selective rewinds refused as conflicted (structural operations or replay mismatch)"
    "whatif.conflicts"

(* Replication *)

let repl_segments_shipped =
  counter ~unit_:"segments" ~help:"Log shipments delivered to replicas (segment-granular units)"
    "repl.segments_shipped"

let repl_bytes_shipped =
  counter ~unit_:"bytes" ~help:"Encoded log bytes delivered to replicas" "repl.bytes_shipped"

let repl_lag_segments =
  gauge ~unit_:"segments" ~help:"Segments the most-lagging attached replica has not yet applied"
    "repl.lag_segments"

let repl_retries =
  counter ~unit_:"sends" ~help:"Shipping sends retried after a channel drop or partition"
    "repl.retries"

let repl_failovers =
  counter ~unit_:"failovers" ~help:"Replica promotions after a primary failure" "repl.failovers"
