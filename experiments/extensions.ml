module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Log_manager = Rw_wal.Log_manager
module Row = Rw_engine.Row
module Access_ctx = Rw_access.Access_ctx
module As_of_snapshot = Rw_core.As_of_snapshot
module Prepared_cache = Rw_core.Prepared_cache
module Domain_pool = Rw_pool.Domain_pool
module Session_manager = Rw_session.Session_manager
module Channel = Rw_repl.Channel
module Replica = Rw_repl.Replica
module Shipper = Rw_repl.Shipper
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
open Harness

(* --- E8: §6.3 at scale — writer tpmC vs concurrent as-of reader count ---

   The paper measures one as-of query loop next to the TPC-C writers; E8
   scales that to a fleet.  For each reader count m, a fresh database runs
   the same writer sessions round-robin-interleaved with m reader sessions,
   each reader holding its own as-of snapshot at its own (staggered)
   SplitLSN and running the stock-level query every round.  Readers consume
   simulated engine time, so writer throughput (new-orders per simulated
   minute) degrades as m grows — the paper's contention effect — while the
   shared prepared-page cache keeps the degradation sub-linear by letting
   overlapping snapshots reuse each other's chain rewinds.

   Self-check: every page allocated on the disk, read through each
   reader's snapshot, must be byte-equal (canonical form) to a fresh
   *solo* snapshot (shared cache off) at the same wall target — the cache
   must be invisible to results.  Pages the reader never touched are
   rewound now, many of them as a delta over a newer cached image.  FAIL
   exits non-zero. *)
let e8 ~quick () =
  header "E8 (§6.3 at scale): writer tpmC vs concurrent as-of reader count";
  let phase = if quick then 300 else 1000 in
  let rounds = if quick then 10 else 30 in
  (* 2 writers x 5 txns per round puts one reader's per-round query cost
     near a third of the writers' — the paper's single-loop operating
     point (~67% retained); bigger fleets then degrade from there. *)
  let writers = 2 and txns_per_round = 5 in
  let reader_counts = [ 0; 1; 4; 16 ] in
  let sc = Twin.self_check "e8" in
  let base_tpmc = ref 0.0 in
  Printf.printf "%8s %10s %10s %12s %11s %12s %7s\n" "readers" "tpmC" "retained%" "avg_query_s"
    "cache_hit%" "shared_hits" "check";
  List.iter
    (fun m ->
      let s = build ~history_txns:phase () in
      let hist_span = s.t_run_end -. s.t_run_start in
      let sm = Session_manager.create s.db in
      let stats = { Tpcc.new_orders = 0; payments = 0; order_statuses = 0; stock_levels = 0 } in
      let wsessions =
        List.init writers (fun i ->
            let drv = Tpcc.create s.db { s.cfg with Tpcc.seed = s.cfg.Tpcc.seed + (101 * (i + 1)) } in
            Session_manager.open_writer sm
              ~name:(Printf.sprintf "writer-%d" i)
              ~step:(fun _db ->
                let b = Tpcc.run_mix drv ~txns:txns_per_round in
                stats.Tpcc.new_orders <- stats.Tpcc.new_orders + b.Tpcc.new_orders;
                stats.Tpcc.payments <- stats.Tpcc.payments + b.Tpcc.payments;
                stats.Tpcc.order_statuses <- stats.Tpcc.order_statuses + b.Tpcc.order_statuses;
                stats.Tpcc.stock_levels <- stats.Tpcc.stock_levels + b.Tpcc.stock_levels))
      in
      let query_times = ref [] in
      let rsessions =
        List.init m (fun i ->
            (* Staggered targets across [10%, 60%] of history back: nearby
               but distinct SplitLSNs, the shared cache's home ground. *)
            let frac = 0.10 +. (0.50 *. float_of_int i /. float_of_int (max 1 (m - 1))) in
            let target = s.t_run_end -. (frac *. hist_span) in
            let w = 1 + (i mod s.cfg.Tpcc.warehouses) and d = 1 + (i mod s.cfg.Tpcc.districts) in
            let rs =
              Session_manager.open_reader sm ~name:(fresh_name "e8_rd") ~wall_us:target
                ~step:(fun view ->
                  let _, q =
                    time_of s.eng (fun () -> Tpcc.stock_level view s.cfg ~w ~d ~threshold:15)
                  in
                  query_times := seconds q :: !query_times)
            in
            (rs, target))
      in
      let t0 = Engine.now_us s.eng in
      Session_manager.run sm ~rounds;
      let elapsed = Engine.now_us s.eng -. t0 in
      let tpmc = Tpcc.tpmc stats ~elapsed_us:elapsed in
      if m = 0 then base_tpmc := tpmc;
      (* The workload's cache statistics, read before the self-check's own
         reads move them. *)
      let cache = Database.prepared_cache s.db in
      let hit_rate = Prepared_cache.hit_rate cache in
      let shared_hits = Prepared_cache.hits cache + Prepared_cache.delta_hits cache in
      (* Self-check before closing: shared readers vs solo oracles. *)
      let ok =
        List.for_all
          (fun (rs, target) ->
            let view = Session_manager.view rs in
            let snap = Option.get (Database.snapshot_handle view) in
            let solo_view =
              Database.create_as_of_snapshot ~shared:false s.db ~name:(fresh_name "e8_solo")
                ~wall_us:target
            in
            let solo = Option.get (Database.snapshot_handle solo_view) in
            let same =
              Lsn.equal (As_of_snapshot.split_lsn snap) (As_of_snapshot.split_lsn solo)
              && List.for_all
                   (fun pid ->
                     String.equal (As_of_snapshot.page_string snap pid)
                       (As_of_snapshot.page_string solo pid))
                   (Disk.written_page_ids (Database.disk s.db))
            in
            As_of_snapshot.drop solo;
            same)
          rsessions
      in
      Twin.expect sc (Printf.sprintf "%d readers: byte-equal to solo snapshots" m) ok;
      let avg_query =
        match !query_times with
        | [] -> "-"
        | l -> Printf.sprintf "%.4f" (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))
      in
      Printf.printf "%8d %10.0f %9.0f%% %12s %10.0f%% %12d %7s\n%!" m tpmc
        (if !base_tpmc > 0.0 then tpmc /. !base_tpmc *. 100.0 else 100.0)
        avg_query
        (hit_rate *. 100.0) shared_hits
        (if ok then "PASS" else "FAIL");
      List.iter (fun ws -> Session_manager.close sm ws) wsessions;
      List.iter (fun (rs, _) -> Session_manager.close sm rs) rsessions)
    reader_counts;
  Printf.printf "(paper: 270k -> 180k tpmC with one concurrent as-of loop, ~67%% retained)\n";
  Twin.finish sc

(* --- E9 (instant restart): time-to-first-query vs log length ---

   One seeded TPC-C history per scale, replayed twice onto identical
   databases: one reopened with full-replay recovery, one with instant
   restart.  Full replay pays analysis + redo + undo before the first
   query; instant restart opens after analysis and serves queries during
   the backlog via first-touch recovery.  As the history grows ~10x the
   full-replay restart grows with it while instant time-to-first-query
   stays within 2x of bare analysis cost.

   Self-checks (exit 1 on any FAIL):
   - a backlog is actually outstanding when the instant engine opens, and
     the straggler-gone + stock-level queries issued during it agree with
     the fully recovered twin;
   - after draining, every table is row-for-row equal to the twin;
   - per scale, instant time-to-first-query <= 2x its analysis cost;
   - across scales, analysis scan grows >= 8x, full-replay restart grows
     >= 4x, and at the largest scale instant opens >= 3x faster than the
     full replay completes. *)
let e9 ~quick () =
  header "E9 (instant restart): time-to-first-query vs log length";
  let scales = if quick then [ 1; 4; 10 ] else [ 1; 2; 5; 10 ] in
  let base_txns = if quick then 60 else 250 in
  let sc = Twin.self_check "e9" in
  let mk name txns =
    let clock = Sim_clock.create () in
    (* A huge checkpoint interval pins the master record at the post-load
       checkpoint, so restart recovery spans the whole measured history.
       Data on SAS, log on SSD: analysis is a sequential log scan while
       redo/undo pay random data-page I/O, the regime instant restart is
       for. *)
    let db =
      Database.create ~name ~clock ~media:Media.sas ~log_media:Media.ssd ~pool_capacity:256
        ~fpi:(Access_ctx.Every_mods 16) ~checkpoint_interval_us:1e15 ()
    in
    let cfg = { Tpcc.small_config with Tpcc.seed = 5 } in
    Tpcc.load db cfg;
    ignore (Database.checkpoint db);
    let drv = Tpcc.create db cfg in
    ignore (Tpcc.run_mix drv ~txns);
    (* A straggler left in flight: both restarts must make it invisible. *)
    let straggler = Database.begin_txn db in
    Database.insert db straggler ~table:"item"
      [ Row.Int straggler_key; Row.Int 42L; Row.Text "inflight" ];
    Log_manager.flush_all (Database.log db);
    (db, cfg)
  in
  Printf.printf "%6s %8s %9s %12s %12s %12s %12s %8s %6s\n" "scale" "txns" "scanned"
    "full_ttfr_s" "analysis_s" "inst_ttfq_s" "inst_ttfr_s" "backlog" "check";
  let results =
    List.map
      (fun scale ->
        let txns = base_txns * scale in
        let fdb, cfg = mk (fresh_name "e9full") txns in
        let fdb2 = Database.crash_and_reopen fdb in
        let fstats = Option.get (Database.last_recovery_stats fdb2) in
        let idb, _ = mk (fresh_name "e9inst") txns in
        let idb2 = Database.crash_and_reopen ~instant:true idb in
        let istats = Option.get (Database.last_recovery_stats idb2) in
        let backlog0 = Database.recovery_backlog idb2 in
        (* Queries during the backlog, answered by first-touch recovery. *)
        let loser_gone = Database.get idb2 ~table:"item" ~key:straggler_key = None in
        let sl_i = Tpcc.stock_level idb2 cfg ~w:1 ~d:1 ~threshold:15 in
        let sl_f = Tpcc.stock_level fdb2 cfg ~w:1 ~d:1 ~threshold:15 in
        Database.recovery_drain_all idb2;
        let state_ok = Twin.dump idb2 = Twin.dump fdb2 in
        let scale_ok = backlog0 > 0 && loser_gone && sl_i = sl_f && state_ok in
        Printf.printf "%6d %8d %9d %12.4f %12.4f %12.4f %12.4f %8d %6s\n%!" scale txns
          fstats.Rw_recovery.Recovery.analysis.Rw_recovery.Recovery.records_scanned
          (seconds fstats.Rw_recovery.Recovery.time_to_full_recovery_us)
          (seconds istats.Rw_recovery.Recovery.analysis_us)
          (seconds istats.Rw_recovery.Recovery.time_to_first_query_us)
          (seconds istats.Rw_recovery.Recovery.time_to_full_recovery_us)
          backlog0
          (if scale_ok then "ok" else "FAIL");
        Twin.expect sc (Printf.sprintf "scale %d: backlog/during-backlog/state" scale) scale_ok;
        (fstats, istats))
      scales
  in
  let first_f, first_i = List.hd results in
  let last_f, last_i = List.nth results (List.length results - 1) in
  let scanned s = float_of_int s.Rw_recovery.Recovery.analysis.Rw_recovery.Recovery.records_scanned in
  let scan_growth = scanned last_f /. scanned first_f in
  let full_growth =
    last_f.Rw_recovery.Recovery.time_to_full_recovery_us
    /. first_f.Rw_recovery.Recovery.time_to_full_recovery_us
  in
  let open_speedup =
    last_f.Rw_recovery.Recovery.time_to_full_recovery_us
    /. last_i.Rw_recovery.Recovery.time_to_first_query_us
  in
  ignore first_i;
  Printf.printf
    "\nlog scan grew %.1fx; full-replay restart grew %.1fx; at the largest scale the\n\
     instant engine opened %.1fx sooner than full replay finished\n"
    scan_growth full_growth open_speedup;
  Twin.expect sc "scan growth >= 8x" (scan_growth >= 8.0);
  Twin.expect sc "full-replay restart grows with the log (>= 3x)" (full_growth >= 3.0);
  (* The asymptotic claim: at the largest scale, time-to-first-query is
     within 2x of bare analysis (small scales carry the fixed cost of
     first-touching the boot/allocation pages at open). *)
  Twin.expect sc "largest scale: ttfq <= 2x analysis"
    (last_i.Rw_recovery.Recovery.time_to_first_query_us
    <= 2.0 *. last_i.Rw_recovery.Recovery.analysis_us);
  Twin.expect sc "instant opens >= 3x sooner at largest scale" (open_speedup >= 3.0);
  Twin.finish sc

(* --- E10: log-shipping replication soak --- *)

(* The headline demo: a writer fleet on the primary with the shipper
   installed as the scheduler's background service — replica lag rises
   under bursts and drains between them, all on one deterministic clock. *)
let e10 ~quick () =
  header "E10: log-shipping replication — catch-up redo, faults, failover";
  let sc = Twin.self_check "e10" in
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:1024 ~log_segment_bytes:16384 "e10" in
  let cfg = { Tpcc.small_config with Tpcc.seed = 7 } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let replica = Replica.of_primary ~name:"e10_replica" db in
  let chan =
    Channel.create ~clock:(Database.clock db) ~seed:7
      ~rates:{ Channel.drop = 0.1; duplicate = 0.05; delay = 0.2; partition = 0.0 }
      ()
  in
  let sh = Shipper.attach ~primary:db ~replica ~channel:chan ~max_retries:50 () in
  let mgr = Session_manager.create db in
  for i = 1 to 3 do
    ignore
      (Session_manager.open_writer mgr
         ~name:(Printf.sprintf "writer%d" i)
         ~step:(fun d ->
           Sim_clock.advance_us (Database.clock d) 500.0;
           ignore (Tpcc.run_mix drv ~txns:1)))
  done;
  Session_manager.set_service mgr (Some (fun () -> ignore (Shipper.step sh)));
  let rounds = if quick then 24 else 60 in
  Printf.printf "%8s %10s %12s %10s\n" "round" "lag_segs" "shipped" "retries";
  for r = 1 to rounds do
    Session_manager.run mgr ~rounds:1;
    if r mod 4 = 0 then ignore (Database.checkpoint db);
    if r mod (rounds / 6) = 0 then
      Printf.printf "%8d %10d %12d %10d\n" r (Shipper.lag_segments sh)
        (Shipper.shipped_segments sh) (Shipper.retries sh)
  done;
  ignore (Database.checkpoint db);
  Shipper.catch_up sh;
  (* Read the drained numbers before the page comparison: creating the
     comparison snapshots appends (and flushes) a checkpoint on the
     primary, which would show up as fresh lag. *)
  let lag = Shipper.lag_segments sh and shipped = Shipper.shipped_segments sh in
  let retries = Shipper.retries sh in
  let caught_up = Shipper.state sh = Shipper.Caught_up in
  let compared, differing =
    Twin.page_diff ~mask_lsn:false (Twin.now db) (Twin.now (Replica.db replica))
  in
  Printf.printf
    "after drain: lag %d, shipped %d, retries %d, replica byte-equal: %s (%d pages)\n" lag
    shipped retries
    (if differing = 0 then "yes" else "NO")
    compared;
  Twin.expect sc "live replica caught up" caught_up;
  Twin.expect sc "live replica page-equal to its primary" (differing = 0);
  Shipper.detach sh;
  Printf.printf "\nFault campaign (each scenario vs a fault-free single-node oracle):\n";
  let seeds = if quick then [ 11; 23 ] else [ 11; 23; 47 ] in
  let rows = Soaks.repl_soak_campaign ~seeds ~quick () in
  Twin.expect sc "fault campaign" (Twin.report ~what:"replication runs" rows);
  Twin.finish sc

(* --- E11: what-if — selective transaction undo vs full-database rewind --- *)

(* The headline figure: cost of removing one early transaction as the
   history after it grows.  The victim's chain is bounded, so selective
   replay touches a fixed dependent set; the full-database rewind
   baseline (same engine, All_successors scope) replays everything that
   committed after the victim and grows linearly with history.  Both
   paths are verified byte-equal against the replay-minus-t oracle. *)
let e11 ~quick () =
  header "E11: what-if — selective replay vs full-database rewind";
  let sc = Twin.self_check "e11" in
  let seed = 11 in
  let chain_limit = 8 in
  let victim_i = 2 in
  let histories = if quick then [ 12; 24; 48 ] else [ 16; 32; 64; 128 ] in
  Printf.printf "%8s | %8s %8s %9s %10s | %8s %8s %9s %10s | %9s %5s\n" "history" "sel_txns"
    "sel_pages" "sel_ops" "sel_time_s" "full_txn" "full_pgs" "full_ops" "full_time_s" "cmp_pages"
    "ok";
  let results =
    List.map
      (fun history ->
        let cells = chain_limit + history + 4 in
        let history_minus skip =
          Soaks.wf_history ~media:Media.ssd ~seed ~cells ~scenario:Soaks.Wf_chain ~chain_limit
            ~history ~skip ()
        in
        let run scope =
          let eng, db, _, txns = history_minus None in
          let log = Database.log db in
          let victim = txns.(victim_i) in
          let graph = Dep_graph.build ~log in
          let res, rtime =
            time_of eng (fun () ->
                Selective.repair ~ctx:(Database.ctx db) ~log ~graph ~victim ~scope
                  ~wall_us:(Database.now_us db) ())
          in
          match res with
          | Ok st -> (db, st, rtime)
          | Error cs ->
              List.iter
                (fun (c : Selective.conflict) -> Printf.printf "conflict: %s\n" c.reason)
                cs;
              Twin.expect sc "repair refused" false;
              (db, { Selective.closure_size = 0; replayed_txns = 0; pages_rewound = 0;
                     ops_unwound = 0; ops_replayed = 0 }, rtime)
        in
        let _, odb, _, _ = history_minus (Some victim_i) in
        let oracle = Twin.dump odb in
        let sdb, sstat, stime = run Selective.Dependents in
        let fdb, fstat, ftime = run Selective.All_successors in
        let agrees db =
          let compared, differing =
            Twin.page_diff ~mask_lsn:true (Twin.now db) (Twin.now odb)
          in
          (compared, Twin.dump db = oracle && differing = 0)
        in
        let compared, sel_ok = agrees sdb in
        let _, full_ok = agrees fdb in
        Twin.expect sc (Printf.sprintf "history %d: selective equals oracle" history) sel_ok;
        Twin.expect sc (Printf.sprintf "history %d: full rewind equals oracle" history) full_ok;
        Printf.printf "%8d | %8d %8d %9d %10.4f | %8d %8d %9d %10.4f | %9d %5s\n%!" history
          sstat.Selective.replayed_txns sstat.Selective.pages_rewound
          (sstat.Selective.ops_unwound + sstat.Selective.ops_replayed)
          (seconds stime) fstat.Selective.replayed_txns fstat.Selective.pages_rewound
          (fstat.Selective.ops_unwound + fstat.Selective.ops_replayed)
          (seconds ftime) compared
          (if sel_ok && full_ok then "ok" else "FAIL");
        (history, sstat, fstat))
      histories
  in
  let h0, s0, f0 = List.hd results in
  let hn, sn, fn = List.nth results (List.length results - 1) in
  let work (st : Selective.stats) = st.ops_unwound + st.ops_replayed in
  Printf.printf
    "\nhistory %d -> %d: selective work %d -> %d ops (dependent set fixed at %d txns);\n\
     full rewind work %d -> %d ops (closure %d -> %d txns)\n"
    h0 hn (work s0) (work sn) sn.Selective.replayed_txns (work f0) (work fn)
    f0.Selective.closure_size fn.Selective.closure_size;
  Twin.expect sc "selective dependent set is fixed"
    (sn.Selective.replayed_txns = s0.Selective.replayed_txns);
  Twin.expect sc "selective work does not grow with history" (work sn = work s0);
  Twin.expect sc "full-rewind closure grows with history"
    (fn.Selective.closure_size - f0.Selective.closure_size = hn - h0);
  Twin.expect sc "full-rewind work grows at least linearly" (work fn - work f0 >= hn - h0);
  Twin.finish sc

(* --- E12: domain-parallel batched as-of preparation (shared pool) ---

   The staged gather/apply/publish pipeline behind
   [As_of_snapshot.materialize_batch] sweeps fan-out 1/2/4/8 over a
   growing snapshot page count at the cold-chain operating point (log on
   SSD behind a starved two-block cache, 4 KiB spilled segments): every
   page's chain gather re-faults cold blocks at real random-read cost,
   which is exactly the I/O the pipeline overlaps.  Elapsed is modeled
   (simulated-clock) time — each page's gather I/O is attributed to its
   round-robin partition and the clock credited down to the slowest
   partition — so the curve is the overlap model, independent of host
   cores.  Elapsed prints to the nanosecond, so tools/golden's diff
   catches a one-unit move in the pipeline's modeled cost.

   Self-checks (exit 1 on any FAIL):
   - at every scale and fan-out, each materialised page is byte-identical
     (canonical form) to the serial twin's — the publish-stage
     determinism contract, end to end;
   - every fan-out materialises the same page count;
   - at the largest scale, fan-out 4 beats serial by >= 2x in modeled
     time (the acceptance bar for the staged pipeline). *)
let e12 ~quick () =
  header "E12: domain-parallel batched as-of preparation (shared pool)";
  let row_scales = if quick then [ 400; 1200 ] else [ 400; 800; 1600; 3200 ] in
  let fanouts = [ 1; 2; 4; 8 ] in
  let sc = Twin.self_check "e12" in
  let build rows =
    let clock = Sim_clock.create () in
    let db =
      Database.create ~name:(fresh_name "e12") ~clock ~media:Media.ram ~log_media:Media.ssd
        ~pool_capacity:256 ~log_cache_blocks:2 ~log_block_bytes:256 ~log_segment_bytes:4096
        ~checkpoint_interval_us:1e15 ()
    in
    load_rows db ~rows;
    let t_mid = Sim_clock.now_us clock in
    rewrite_rows db ~rows ~rounds:3;
    (db, t_mid, Disk.written_page_ids (Database.disk db))
  in
  (* One batched materialization at a given fan-out on a fresh unshared
     snapshot: (modeled elapsed us, pages rewound, canonical images). *)
  let measure db t_mid pages fanout =
    Fun.protect
      ~finally:(fun () -> Domain_pool.set_fanout None)
      (fun () ->
        Domain_pool.set_fanout (Some fanout);
        let clock = Database.clock db in
        let view =
          Database.create_as_of_snapshot ~shared:false db ~name:(fresh_name "e12snap")
            ~wall_us:t_mid
        in
        let snap = Option.get (Database.snapshot_handle view) in
        let t0 = Sim_clock.now_us clock in
        let n = As_of_snapshot.materialize_batch snap pages in
        let dt = Sim_clock.now_us clock -. t0 in
        let images =
          List.map
            (fun pid -> (Page_id.to_int pid, As_of_snapshot.page_string snap pid))
            (As_of_snapshot.materialized_page_ids snap)
        in
        As_of_snapshot.drop snap;
        (dt, n, images))
  in
  Printf.printf "%6s %6s %14s %14s %14s %14s %9s %6s\n" "rows" "pages" "d=1 (s)" "d=2 (s)"
    "d=4 (s)" "d=8 (s)" "spd@4" "check";
  let last_speedup = ref 0.0 in
  List.iter
    (fun rows ->
      let db, t_mid, pages = build rows in
      let serial_us, serial_n, serial_images = measure db t_mid pages 1 in
      let results =
        List.map
          (fun d ->
            if d = 1 then (d, serial_us)
            else begin
              let dt, n, images = measure db t_mid pages d in
              let equal = images = serial_images in
              Twin.expect sc
                (Printf.sprintf "rows %d fan-out %d: byte-equal to serial twin" rows d)
                equal;
              Twin.expect sc
                (Printf.sprintf "rows %d fan-out %d: same page count" rows d)
                (n = serial_n);
              (d, dt)
            end)
          fanouts
      in
      let at d = List.assoc d results in
      let speedup = serial_us /. at 4 in
      last_speedup := speedup;
      Printf.printf "%6d %6d %14.9f %14.9f %14.9f %14.9f %8.2fx %6s\n%!" rows
        (List.length serial_images) (seconds (at 1)) (seconds (at 2)) (seconds (at 4))
        (seconds (at 8)) speedup
        (if Twin.passed sc then "ok" else "FAIL"))
    row_scales;
  Twin.expect sc "largest scale: fan-out 4 beats serial >= 2x (modeled)" (!last_speedup >= 2.0);
  print_newline ();
  Twin.finish sc
