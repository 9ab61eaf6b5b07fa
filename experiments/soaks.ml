module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Lsn = Rw_storage.Lsn
module Disk = Rw_storage.Disk
module Fault_plan = Rw_storage.Fault_plan
module Prng = Rw_storage.Prng
module Log_manager = Rw_wal.Log_manager
module Schema = Rw_catalog.Schema
module Row = Rw_engine.Row
module Access_ctx = Rw_access.Access_ctx
module Channel = Rw_repl.Channel
module Replica = Rw_repl.Replica
module Shipper = Rw_repl.Shipper
module Repl_failover = Rw_repl.Failover
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
open Harness

(* --- fault-injection campaign: the crash-point property harness --- *)

(* The campaign's fault plan rates. *)
let torn_write_rate = 0.30
let bit_rot_rate = 0.02
let transient_error_rate = 0.01
let torn_log_tail_rate = 0.50

(* One run of the property: load TPC-C under an active fault plan, commit
   [crash_after] transactions, leave one transaction in flight, crash at a
   fault-chosen point, recover, then verify against a fault-free oracle
   driven by the same seed:
   - cross-table invariants hold and the in-flight transaction is gone;
   - the current state agrees row-for-row, and every allocated page in
     canonical form (page LSN masked), with the oracle after the same
     number of committed transactions;
   - an as-of query at mid-history agrees row-for-row with the oracle's
     as-of query at its own mid-history time.

   With [instant] the restart uses instant recovery: the engine opens after
   analysis alone, and the straggler-gone plus a stock-level query are
   issued *during* the redo backlog (first-touch recovery serves them, with
   the fault plan still active); the backlog is then drained before the
   oracle comparison. *)
let crash_repair_run ~instant ~seed ~crash_after =
  let cfg = { Tpcc.small_config with Tpcc.seed } in
  let stock db = Tpcc.stock_level db cfg ~w:1 ~d:1 ~threshold:15 in
  let open_db ?fault_plan name =
    let db =
      Database.create ~name ~clock:(Sim_clock.create ()) ~media:Media.ram ~pool_capacity:24
        ~fpi:(Access_ctx.Every_mods 16) ~checkpoint_interval_us:10_000.0 ?fault_plan ()
    in
    Tpcc.load db cfg;
    let drv = Tpcc.create db cfg in
    (db, Twin.run_history db crash_after (fun _ -> ignore (Tpcc.run_mix drv ~txns:1)))
  in
  (* Faulted run. *)
  let plan =
    Fault_plan.create ~torn_write_rate ~bit_rot_rate ~transient_error_rate ~torn_log_tail_rate
      ~seed ()
  in
  let db, wall_f = open_db ~fault_plan:plan "faulted" in
  (* A straggler left in flight: recovery must undo it. *)
  let straggler = Database.begin_txn db in
  Database.insert db straggler ~table:"item"
    [ Row.Int straggler_key; Row.Int 42L; Row.Text "inflight" ];
  let crash_lsn = Log_manager.end_lsn (Database.log db) in
  let db2 = Database.crash_and_reopen ~instant db in
  let tail_truncated =
    match Database.last_recovery_stats db2 with
    | Some s -> s.Rw_recovery.Recovery.tail_truncated <> None
    | None -> false
  in
  (* Instant mode: query while the redo backlog is outstanding — the
     straggler must already be invisible and a stock-level scan must return
     post-recovery values, both served by first-touch recovery. *)
  let mid_loser_gone =
    (not instant) || Database.get db2 ~table:"item" ~key:straggler_key = None
  in
  let mid_stock = if instant then Some (stock db2) else None in
  (* Verification phase: stop injecting, finish any outstanding instant
     backlog, and scrub out residual damage: the as-of snapshot path reads
     primary pages from disk and raises on a corrupt one instead of
     repairing it. *)
  Disk.set_fault_plan (Database.disk db2) None;
  Database.recovery_drain_all db2;
  ignore (Database.scrub db2);
  let st = Io_stats.copy (Disk.stats (Database.disk db2)) in
  Io_stats.add st (Log_manager.stats (Database.log db2));
  (* Oracle run: identical workload, no faults. *)
  let odb, wall_o = open_db "oracle" in
  let consistent = Tpcc.consistency_check db2 cfg = Ok () in
  let loser_gone = mid_loser_gone && Database.get db2 ~table:"item" ~key:straggler_key = None in
  let state_agrees =
    Twin.dump db2 = Twin.dump odb
    && match mid_stock with None -> true | Some sl -> sl = stock odb
  in
  (* Walls are 0-based: [mid] is the point just after transaction
     [max 1 (crash_after / 2)]. *)
  let mid = max 1 (crash_after / 2) - 1 in
  let asof_agrees = Twin.asof_agrees ~probe:stock (db2, wall_f.(mid)) (odb, wall_o.(mid)) in
  let compared, differing = Twin.page_diff ~mask_lsn:true (Twin.now db2) (Twin.now odb) in
  let quarantined = List.length (Database.quarantined_pages db2) in
  {
    Twin.seed;
    label = Printf.sprintf "after %d" crash_after;
    counts =
      [
        ("crash_lsn", Lsn.to_int crash_lsn);
        ("injected", st.Io_stats.faults_injected);
        ("detected", st.Io_stats.corruptions_detected);
        ("repaired", st.Io_stats.pages_repaired);
        ("retries", st.Io_stats.io_retries);
        ("quarnt", quarantined);
        ("torn", Bool.to_int tail_truncated);
        ("cmp_pages", compared);
      ];
    checks =
      [
        ("cons", consistent);
        ("loser", loser_gone);
        ("state", state_agrees);
        ("asof", asof_agrees);
        ("pages", differing = 0);
        ("unquar", quarantined = 0);
      ];
  }

let crash_repair_campaign ?(instant = false) ?(seeds = [ 11; 23; 47 ]) ?(crash_points = 4)
    ?(quick = false) () =
  let max_txns = if quick then 24 else 60 in
  List.concat_map
    (fun seed ->
      (* Crash points are drawn from the seed so every (seed, point) pair
         is reproducible but spread over the run. *)
      let rng = Prng.create (seed * 7919) in
      let seen = ref [] in
      List.init crash_points (fun _ ->
          (* Distinct points per seed (bounded retry keeps it total). *)
          let rec draw fuel =
            let c = Prng.int_in rng 5 max_txns in
            if fuel > 0 && List.mem c !seen then draw (fuel - 1) else c
          in
          let crash_after = draw 8 in
          seen := crash_after :: !seen;
          crash_repair_run ~instant ~seed ~crash_after))
    seeds

let faults ~quick () =
  header "Fault injection: crash-point repair campaign";
  Printf.printf
    "torn writes %.0f%%, bit rot %.1f%%, transient errors %.1f%%, torn log tail %.0f%%\n"
    (100.0 *. torn_write_rate) (100.0 *. bit_rot_rate) (100.0 *. transient_error_rate)
    (100.0 *. torn_log_tail_rate);
  ignore (Twin.report ~what:"crash points" (crash_repair_campaign ~quick ()))

(* --- replication fault campaign --- *)

type repl_scenario = Crash_mid_catchup | Sustained_lag | Partition_heal | Failover_rejoin

let repl_scenarios = [ Crash_mid_catchup; Sustained_lag; Partition_heal; Failover_rejoin ]

let repl_scenario_name = function
  | Crash_mid_catchup -> "crash"
  | Sustained_lag -> "lag"
  | Partition_heal -> "partition"
  | Failover_rejoin -> "failover"

(* One scenario run against a fault-free single-node oracle driven by the
   same seed.  The primary+replica pair runs the scenario; the oracle runs
   the identical committed workload on one node.  Convergence is judged
   three ways: row-for-row state, every allocated page in canonical form
   (page LSN masked against the oracle, compared between the two nodes of
   a failover pair, which replayed the same log), and a mid-history as-of
   query at each engine's own recorded wall time. *)
let repl_soak_run ~quick ~seed ~scenario =
  let txns = if quick then 48 else 120 in
  let mk tag =
    let eng = Engine.create ~media:Media.ram () in
    let db =
      Engine.create_database eng ~pool_capacity:1024 ~log_segment_bytes:16384 (fresh_name tag)
    in
    let cfg = { Tpcc.small_config with Tpcc.seed } in
    Tpcc.load db cfg;
    ignore (Database.checkpoint db);
    let drv = Tpcc.create db cfg in
    (db, cfg, fun n -> Twin.run_history db n (fun _ -> ignore (Tpcc.run_mix drv ~txns:1)))
  in
  let db, cfg, run_p = mk "repl_prim" in
  let odb, _ocfg, run_o = mk "repl_oracle" in
  let walls_p = ref [] in
  let run_txns n = walls_p := run_p n :: !walls_p in
  let replica = Replica.of_primary ~name:(fresh_name "replica") db in
  let clock = Database.clock db in
  let lag_max = ref 0 in
  let observe sh = lag_max := max !lag_max (Shipper.lag_segments sh) in
  (* Oracle commits the same transactions up front; its wall points are its
     own (each engine's clock advances differently). *)
  let walls_o = run_o txns in
  let sh, stressed =
    match scenario with
    | Sustained_lag ->
        (* Faulty link pumped only once per traffic batch: the replica lags
           for the whole run and still converges at the end. *)
        let chan =
          Channel.create ~clock ~seed
            ~rates:{ Channel.drop = 0.2; duplicate = 0.1; delay = 0.3; partition = 0.0 }
            ()
        in
        let sh = Shipper.attach ~primary:db ~replica ~channel:chan ~max_retries:50 () in
        let batches = 8 in
        for _ = 1 to batches do
          run_txns (txns / batches);
          ignore (Database.checkpoint db);
          observe sh;
          ignore (Shipper.step sh)
        done;
        run_txns (txns mod batches);
        ignore (Database.checkpoint db);
        observe sh;
        Shipper.catch_up sh;
        (sh, !lag_max > 0 && Shipper.retries sh > 0)
    | Crash_mid_catchup ->
        let sh =
          Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock ~seed ()) ()
        in
        run_txns txns;
        ignore (Database.checkpoint db);
        let lag0 = Shipper.lag_segments sh in
        observe sh;
        while Shipper.lag_segments sh > max 1 (lag0 / 2) do
          ignore (Shipper.step sh)
        done;
        Replica.crash_and_reopen replica;
        let redo_only =
          match Database.last_recovery_stats (Replica.db replica) with
          | Some s -> s.Rw_recovery.Recovery.undone_ops = 0
          | None -> false
        in
        Shipper.catch_up sh;
        (sh, redo_only)
    | Partition_heal ->
        let chan = Channel.create ~clock ~seed () in
        let sh = Shipper.attach ~primary:db ~replica ~channel:chan ~max_retries:3 () in
        run_txns (txns / 2);
        ignore (Database.checkpoint db);
        Channel.partition chan ~sends:100_000;
        Shipper.catch_up sh;
        let disconnected = Shipper.state sh = Shipper.Disconnected in
        run_txns (txns - (txns / 2));
        ignore (Database.checkpoint db);
        observe sh;
        Channel.heal chan;
        Shipper.catch_up sh;
        (sh, disconnected)
    | Failover_rejoin ->
        let sh =
          Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock ~seed ()) ()
        in
        run_txns txns;
        ignore (Database.checkpoint db);
        Shipper.catch_up sh;
        (sh, true)
  in
  let walls_p = Array.concat (List.rev !walls_p) in
  let retries = Shipper.retries sh in
  (* The node compared with the oracle, the rejoined node (if any) that
     replayed its log, the shipper left to detach and the units an earlier
     shipper delivered. *)
  let served, rejoined, sh, shipped_before =
    match scenario with
    | Failover_rejoin ->
        (* The primary commits a tail that never ships, then dies.  The
           promoted replica must serve exactly the shipped history; the
           demoted primary rejoins by truncating its divergent tail. *)
        let shipped = Shipper.shipped_segments sh in
        ignore (run_p 10);
        Shipper.detach sh;
        let new_primary, at = Repl_failover.promote replica in
        let rejoined = Repl_failover.rejoin ~name:(fresh_name "rejoin") ~at db in
        let sh2 =
          Shipper.attach ~primary:new_primary ~replica:rejoined
            ~channel:(Channel.create ~clock ()) ()
        in
        Shipper.catch_up sh2;
        (new_primary, [ Replica.db rejoined ], sh2, shipped)
    | _ -> (Replica.db replica, [], sh, 0)
  in
  let state_agrees =
    List.for_all (fun n -> Twin.dump n = Twin.dump odb) (served :: rejoined)
  in
  let oracle_diff = Twin.page_diff ~mask_lsn:true (Twin.now served) (Twin.now odb) in
  let page_diffs =
    oracle_diff
    :: List.map
         (fun n -> Twin.page_diff ~mask_lsn:false (Twin.now n) (Twin.now served))
         rejoined
  in
  let mid = Array.length walls_p / 2 in
  let asof_agrees =
    Twin.asof_agrees
      ~probe:(fun v -> Tpcc.stock_level v cfg ~w:1 ~d:1 ~threshold:15)
      (served, walls_p.(mid)) (odb, walls_o.(mid))
  in
  let converged = Shipper.state sh = Shipper.Caught_up in
  let shipped = shipped_before + Shipper.shipped_segments sh in
  Shipper.detach sh;
  {
    Twin.seed;
    label = repl_scenario_name scenario;
    counts =
      [
        ("txns", txns);
        ("shipped", shipped);
        ("retries", retries);
        ("lag_max", !lag_max);
        ("cmp_pages", List.fold_left (fun a (n, _) -> a + n) 0 page_diffs);
      ];
    checks =
      [
        ("stress", stressed);
        ("conv", converged);
        ("state", state_agrees);
        ("pages", List.for_all (fun (_, d) -> d = 0) page_diffs);
        ("asof", asof_agrees);
      ];
  }

let repl_soak_campaign ?(seeds = [ 11; 23; 47 ]) ?(quick = false) () =
  List.concat_map
    (fun seed -> List.map (fun scenario -> repl_soak_run ~quick ~seed ~scenario) repl_scenarios)
    seeds

(* --- what-if selective-undo campaign --- *)

type whatif_scenario = Wf_chain | Wf_independent | Wf_mixed

let whatif_scenarios = [ Wf_chain; Wf_independent; Wf_mixed ]

let whatif_scenario_name = function
  | Wf_chain -> "chain"
  | Wf_independent -> "independent"
  | Wf_mixed -> "mixed"

let wf_table = "cells"
let wf_value_len = 600

(* Key stride between cells.  A leaf holds at most ~13 rows of
   [wf_value_len] bytes, so 17 consecutive keys can never share a page:
   page-level dependencies between history transactions equal cell
   sharing by construction. *)
let wf_cell_gap = 17

(* Blind writes: the value depends only on (seed, epoch, key), never on
   a read — the envelope in which logged-image replay equals
   re-execution (docs/WHATIF.md).  Fixed length keeps the page layout
   split-free through the history phase. *)
let wf_value ~seed ~epoch ~key =
  let head = Printf.sprintf "s%d.e%d.k%d." seed epoch key in
  head ^ String.make (wf_value_len - String.length head) 'x'

(* Cells history transaction [i] updates.  Chained transactions share a
   cell with their successor; private cells live past [chain_limit + 1]
   so they collide with nothing.  Bounding the chain is what lets e11
   grow history while the victim's dependent set stays fixed. *)
let wf_cells_of ~scenario ~chain_limit ~i =
  match scenario with
  | Wf_chain -> if i < chain_limit then [ i; i + 1 ] else [ chain_limit + 2 + i ]
  | Wf_independent -> [ chain_limit + 2 + i ]
  | Wf_mixed ->
      if i land 1 = 0 && i < chain_limit then [ i; i + 2 ] else [ chain_limit + 2 + i ]

let wf_build ?(media = Media.ram) ~seed ~cells () =
  let eng = Engine.create ~media () in
  let db = Engine.create_database eng ~pool_capacity:1024 (fresh_name "whatif") in
  Database.with_txn db (fun txn ->
      ignore
        (Database.create_table db txn ~table:wf_table
           ~columns:
             [
               { Schema.name = "k"; ctype = Schema.Int };
               { Schema.name = "v"; ctype = Schema.Text };
             ]
           ()));
  (* Setup rows, inserted in batches: every cell key plus the filler rows
     that keep cells on distinct leaves.  Splits (structural operations)
     are confined to this pre-history phase. *)
  let max_key = cells * wf_cell_gap in
  let k = ref 0 in
  while !k <= max_key do
    Database.with_txn db (fun txn ->
        let stop = min max_key (!k + 63) in
        while !k <= stop do
          Database.insert db txn ~table:wf_table
            [ Row.Int (Int64.of_int !k); Row.Text (wf_value ~seed ~epoch:0 ~key:!k) ];
          incr k
        done)
  done;
  ignore (Database.checkpoint db);
  (eng, db)

let wf_apply db ~seed ~epoch cells =
  Database.with_txn db (fun txn ->
      List.iter
        (fun c ->
          let key = c * wf_cell_gap in
          Database.update db txn ~table:wf_table
            [ Row.Int (Int64.of_int key); Row.Text (wf_value ~seed ~epoch ~key) ])
        cells)

let wf_history ?media ~seed ~cells ~scenario ~chain_limit ~history ~skip () =
  let eng, db = wf_build ?media ~seed ~cells () in
  let summaries () = Log_manager.txn_summaries (Database.log db) in
  let before = List.length (summaries ()) in
  let walls =
    Twin.run_history db history (fun i ->
        if skip <> Some i then
          wf_apply db ~seed ~epoch:(i + 1) (wf_cells_of ~scenario ~chain_limit ~i))
  in
  let txns = List.filteri (fun i _ -> i >= before) (summaries ()) in
  (eng, db, walls, Array.of_list (List.map (fun s -> s.Log_manager.ts_txn) txns))

let whatif_soak_run ~quick ~seed ~scenario =
  let history = if quick then 20 else 40 in
  let chain_limit = history in
  let cells = (2 * history) + 4 in
  let eng, db, walls, txns =
    wf_history ~seed ~cells ~scenario ~chain_limit ~history ~skip:None ()
  in
  let log = Database.log db in
  let victim_i =
    let v = (history / 3) + (seed mod 5) in
    match scenario with Wf_mixed -> v land lnot 1 | _ -> v
  in
  let victim = txns.(victim_i) in
  let graph = Dep_graph.build ~log in
  (* The dependent set each scenario is constructed to produce. *)
  let expected_replayed =
    match scenario with
    | Wf_independent -> 0
    | Wf_chain -> history - 1 - victim_i
    | Wf_mixed -> ((history - 1) / 2) - (victim_i / 2)
  in
  (* Oracle: replay the recorded history minus the victim from scratch. *)
  let _, odb, owalls, _ =
    wf_history ~seed ~cells ~scenario ~chain_limit ~history ~skip:(Some victim_i) ()
  in
  let oracle_dump = Twin.dump odb in
  (* What-if view first: a read-only preview over the unrepaired state. *)
  let view_agrees, closure, replayed =
    match Selective.what_if_view ~engine:eng ~db ~graph ~victim ~name:(fresh_name "wfv") with
    | Ok (view, st) ->
        (Twin.dump view = oracle_dump, st.Selective.closure_size, st.Selective.replayed_txns)
    | Error _ -> (false, 0, 0)
  in
  (* Crash with an in-flight update flushed in the log tail, on a cell no
     history transaction touches, and reopen: the graph rebuilt from the
     reopened log must be the one built before the crash, and the repair
     runs on the reopened database. *)
  let inflight = Database.begin_txn db in
  let key = (cells - 1) * wf_cell_gap in
  Database.update db inflight ~table:wf_table
    [ Row.Int (Int64.of_int key); Row.Text (wf_value ~seed ~epoch:(history + 1) ~key) ];
  Log_manager.flush_all log;
  let db = Database.crash_and_reopen db in
  let log = Database.log db in
  let shape g =
    List.map
      (fun (n : Dep_graph.node) ->
        (n, List.map (fun (d : Dep_graph.node) -> d.ts_txn) (Dep_graph.dependents g n.ts_txn)))
      (Dep_graph.nodes g)
  in
  let pre_crash = shape graph in
  let graph = Dep_graph.build ~log in
  let reopen_agrees = shape graph = pre_crash in
  (* In-place repair, then the three-way agreement with the oracle. *)
  let repaired, pages, ops_replayed =
    match
      Selective.repair ~ctx:(Database.ctx db) ~log ~graph ~victim
        ~wall_us:(Database.now_us db) ()
    with
    | Ok st -> (true, st.Selective.pages_rewound, st.Selective.ops_replayed)
    | Error _ | (exception Selective.Unknown_txn _) -> (false, 0, 0)
  in
  let state_agrees = repaired && Twin.dump db = oracle_dump in
  (* The repaired and oracle engines reach the same state through
     different log records: page LSNs are masked. *)
  let compared, differing = Twin.page_diff ~mask_lsn:true (Twin.now db) (Twin.now odb) in
  (* Point-in-time queries of the pre-repair history survive the repair:
     an as-of just before the victim committed agrees with the oracle's
     state at its matching point. *)
  let asof_agrees =
    repaired && victim_i > 0
    && Twin.asof_agrees (db, walls.(victim_i - 1)) (odb, owalls.(victim_i - 1))
  in
  {
    Twin.seed;
    label = whatif_scenario_name scenario;
    counts =
      [
        ("history", history);
        ("closure", closure);
        ("replay", replayed);
        ("pages", pages);
        ("ops", ops_replayed);
        ("cmp_pages", compared);
      ];
    checks =
      [
        ("reopen", reopen_agrees);
        ("scope", replayed = expected_replayed);
        ("view", view_agrees);
        ("repaired", repaired);
        ("state", state_agrees);
        ("pages", repaired && differing = 0);
        ("asof", asof_agrees);
      ];
  }

let whatif_soak_campaign ?(seeds = [ 11; 23; 47 ]) ?(quick = false) () =
  List.concat_map
    (fun seed -> List.map (fun scenario -> whatif_soak_run ~quick ~seed ~scenario) whatif_scenarios)
    seeds
