module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Log_manager = Rw_wal.Log_manager
module Log_record = Rw_wal.Log_record
module Database = Rw_engine.Database
module Backup = Rw_engine.Backup
module Engine = Rw_engine.Engine
module As_of_snapshot = Rw_core.As_of_snapshot
module Split_lsn = Rw_core.Split_lsn
module Prepared_cache = Rw_core.Prepared_cache
module Session_manager = Rw_session.Session_manager
module Domain_pool = Rw_pool.Domain_pool
module Access_ctx = Rw_access.Access_ctx

type figure =
  | Fig5
  | Fig6
  | Fig7
  | Fig8
  | Fig9
  | Fig10
  | Fig11
  | Sec6_3
  | Sec6_4
  | E8
  | E9
  | E10
  | E11
  | E12
  | Ablation
  | Faults
  | Explain
  | Segments

let all =
  [
    Fig5;
    Fig6;
    Fig7;
    Fig8;
    Fig9;
    Fig10;
    Fig11;
    Sec6_3;
    Sec6_4;
    E8;
    E9;
    E10;
    E11;
    E12;
    Ablation;
    Faults;
    Explain;
    Segments;
  ]

let name = function
  | Fig5 -> "fig5"
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Fig8 -> "fig8"
  | Fig9 -> "fig9"
  | Fig10 -> "fig10"
  | Fig11 -> "fig11"
  | Sec6_3 -> "sec6_3"
  | Sec6_4 -> "sec6_4"
  | E8 -> "e8"
  | E9 -> "e9"
  | E10 -> "e10"
  | E11 -> "e11"
  | E12 -> "e12"
  | Ablation -> "ablation"
  | Faults -> "faults"
  | Explain -> "explain"
  | Segments -> "segments"

let of_string s = List.find_opt (fun f -> name f = s) all

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let seconds us = us /. 1_000_000.0

(* --- common setup: a TPC-C database with some committed history --- *)

type setup = {
  eng : Engine.t;
  db : Database.t;
  drv : Tpcc.t;
  cfg : Tpcc.config;
  t_run_start : float;  (** sim time when the measured history began *)
  t_run_end : float;
}

(* The figure harness logs no full page images unless a row sweeps the
   policy, so the paper's baselines stay fixed as the engine default
   moves. *)
let build ?(fpi = Access_ctx.Off) ?(media = Media.ssd) ?log_media ?log_cache_blocks ?log_block_bytes
    ?log_segment_bytes ?(group_commit = Some (64 * 1024, 2_000.0)) ?(cfg = Tpcc.default_config)
    ~history_txns () =
  let eng = Engine.create ~media ?log_media () in
  let db =
    Engine.create_database eng ~fpi ~pool_capacity:1024
      ~checkpoint_interval_us:2_000_000.0 ?log_cache_blocks ?log_block_bytes ?log_segment_bytes
      "tpcc"
  in
  (* The workload driver runs on the batched commit API: flush once per
     64KiB of log tail or 2ms of simulated waiter age, whichever first. *)
  (match group_commit with
  | Some (max_batch_bytes, max_delay_us) ->
      Database.set_group_commit db ~max_batch_bytes ~max_delay_us
  | None -> ());
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let t_run_start = Engine.now_us eng in
  if history_txns > 0 then ignore (Tpcc.run_mix drv ~txns:history_txns);
  { eng; db; drv; cfg; t_run_start; t_run_end = Engine.now_us eng }

let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d" prefix !n

let time_of eng f =
  let t0 = Engine.now_us eng in
  let v = f () in
  (v, Engine.now_us eng -. t0)

(* --- Figures 5 & 6: FPI frequency sweep --- *)

(* The paper's N, then byte budgets of 4, 2 and 1 pages. *)
let fpi_values =
  Access_ctx.
    [
      Off;
      Every_mods 100;
      Every_mods 50;
      Every_mods 20;
      Every_mods 10;
      Budget_bytes (4 * Page.page_size);
      Budget_bytes (2 * Page.page_size);
      Budget_bytes Page.page_size;
    ]

let fpi_label = function
  | Access_ctx.Off -> "off"
  | Access_ctx.Every_mods n -> string_of_int n
  | Access_ctx.Budget_bytes b -> Printf.sprintf "B=%dp" (b / Page.page_size)

let budget_note = "(B=kp: an image per k pages of a page's logged chain bytes)\n"

let fig56 ~quick ~show () =
  let txns = if quick then 600 else 4000 in
  let rows =
    List.map
      (fun fpi ->
        let s = build ~fpi ~history_txns:0 () in
        let log = Database.log s.db in
        let bytes0 = Log_manager.total_appended_bytes log in
        let w0 = Io_stats.copy (Log_manager.stats log) in
        let t0 = Engine.now_us s.eng in
        let stats = Tpcc.run_mix s.drv ~txns in
        let elapsed = Engine.now_us s.eng -. t0 in
        let log_mb =
          float_of_int (Log_manager.total_appended_bytes log - bytes0) /. 1_048_576.0
        in
        let writes = Io_stats.diff (Log_manager.stats log) w0 in
        (fpi, log_mb, Tpcc.tpmc stats ~elapsed_us:elapsed, writes))
      fpi_values
  in
  let base_mb, base_tpmc =
    match rows with (_, mb, tp, _) :: _ -> (mb, tp) | [] -> (1.0, 1.0)
  in
  (match show with
  | `Space ->
      header "Figure 5: transaction log space vs full-page-image frequency N";
      Printf.printf "%-12s %12s %12s\n" "N" "log (MiB)" "overhead";
      List.iter
        (fun (fpi, mb, _, _) ->
          Printf.printf "%-12s %12.2f %11.0f%%\n" (fpi_label fpi) mb
            ((mb /. base_mb -. 1.0) *. 100.0))
        rows
  | `Throughput ->
      header "Figure 6: throughput (tpmC) vs full-page-image frequency N";
      Printf.printf "%-12s %12s %12s\n" "N" "tpmC" "vs off";
      List.iter
        (fun (fpi, _, tp, _) ->
          Printf.printf "%-12s %12.0f %11.1f%%\n" (fpi_label fpi) tp
            ((tp /. base_tpmc -. 1.0) *. 100.0))
        rows);
  List.iter
    (fun (fpi, _, _, w) ->
      let key =
        match fpi with Access_ctx.Budget_bytes _ -> fpi_label fpi | _ -> "N=" ^ fpi_label fpi
      in
      Printf.printf "  %-6s log write path: %s\n" key (Format.asprintf "%a" Io_stats.pp_writes w))
    rows;
  Printf.printf
    "(paper: additional logging has little throughput impact but grows the log)\n%!";
  print_string budget_note

(* --- Figures 7-11: restore vs as-of query at increasing time-back --- *)

type point = {
  back_s : float;
  snap_create_s : float;
  asof_query_s : float;
  restore_s : float;
  undo_ios : int;
}

(* Each point is measured on a FRESH engine replaying the identical
   deterministic history: measurements must not warm each other's log
   cache, and the log cache is sized well below the history's log volume
   so rewinding into old regions actually stalls on log I/O (the effect
   Figure 11 quantifies). *)
let backward_cache : (string * bool * string, point list) Hashtbl.t = Hashtbl.create 8

let backward_fracs = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let backward_points ?(fpi = Access_ctx.Off) ~media ~quick () =
  let key = (media.Media.name, quick, fpi_label fpi) in
  match Hashtbl.find_opt backward_cache key with
  | Some points -> points
  | None ->
  let history_txns = if quick then 1200 else 8000 in
  (* Many warehouses/items spread the update traffic over many pages, as in
     the paper's 800-warehouse setup: per-page chains stay short relative
     to total history, which is what keeps the as-of query cheap. *)
  let cfg =
    if quick then Tpcc.default_config
    else { Tpcc.default_config with warehouses = 16; items = 2000; customers = 300 }
  in
  let points =
  List.map
    (fun frac ->
      let s =
        build ~fpi ~media ~log_cache_blocks:64 ~log_block_bytes:16384 ~cfg ~history_txns:0 ()
      in
      (* Cold static bulk: the paper's database is 40 GB of which the
         workload touches a small hot set.  The cold region is never read
         by queries or the log rewind, but a full backup/restore must copy
         it — that asymmetry is the heart of Figures 7-10. *)
      Rw_storage.Disk.extend (Database.disk s.db) (if quick then 10_000 else 400_000);
      let backup = Backup.take s.db in
      let t_start = Engine.now_us s.eng in
      ignore (Tpcc.run_mix s.drv ~txns:history_txns);
      let t_end = Engine.now_us s.eng in
      let span = t_end -. t_start in
      let log_stats = Log_manager.stats (Database.log s.db) in
      let target = t_end -. (frac *. span) in
      let snap, create_s =
        time_of s.eng (fun () ->
            Database.create_as_of_snapshot s.db ~name:(fresh_name "snap") ~wall_us:target)
      in
      let ios0 = Io_stats.copy log_stats in
      let _, query_s =
        time_of s.eng (fun () -> Tpcc.stock_level snap s.cfg ~w:1 ~d:1 ~threshold:15)
      in
      let undo_ios = (Io_stats.diff log_stats ios0).Io_stats.random_reads in
      let _, restore_s =
        time_of s.eng (fun () ->
            let restored = Backup.restore_as_of backup ~from:s.db ~wall_us:target in
            ignore (Tpcc.stock_level restored s.cfg ~w:1 ~d:1 ~threshold:15))
      in
      {
        back_s = frac *. span /. 1_000_000.0;
        snap_create_s = seconds create_s;
        asof_query_s = seconds query_s;
        restore_s = seconds restore_s;
        undo_ios;
      })
    backward_fracs
  in
  Hashtbl.replace backward_cache key points;
  points

(* The figures' rows are measured without images; each then repeats its
   points under the engine's default byte budget. *)
let under_default_budget () =
  Printf.printf "under the engine's default full-page-image policy (%s):\n"
    (fpi_label Access_ctx.default_fpi)

let fig_restore_vs_asof ~media ~quick ~fig () =
  header
    (Printf.sprintf "Figure %d: restore vs as-of query end-to-end time (%s)" fig media.Media.name);
  let table points =
    Printf.printf "%-14s %16s %16s %10s\n" "back (sim s)" "as-of total (s)" "restore (s)" "speedup";
    List.iter
      (fun p ->
        let asof = p.snap_create_s +. p.asof_query_s in
        Printf.printf "%-14.2f %16.4f %16.3f %9.0fx\n" p.back_s asof p.restore_s
          (p.restore_s /. (if asof > 0.0 then asof else 1e-9)))
      points
  in
  table (backward_points ~media ~quick ());
  Printf.printf
    "(paper: as-of grows with time back; restore is flat and orders of magnitude slower)\n%!";
  under_default_budget ();
  table (backward_points ~fpi:Access_ctx.default_fpi ~media ~quick ())

let fig_create_vs_query ~media ~quick ~fig () =
  header
    (Printf.sprintf "Figure %d: snapshot creation vs as-of query time (%s)" fig
       media.Media.name);
  let table points =
    Printf.printf "%-14s %18s %16s\n" "back (sim s)" "snap creation (s)" "as-of query (s)";
    List.iter
      (fun p -> Printf.printf "%-14.2f %18.4f %16.4f\n" p.back_s p.snap_create_s p.asof_query_s)
      points
  in
  table (backward_points ~media ~quick ());
  Printf.printf
    "(paper: creation is roughly constant — bounded by log scanned from the nearest\n\
    \ checkpoint; query time grows with the modifications to be undone)\n%!";
  under_default_budget ();
  table (backward_points ~fpi:Access_ctx.default_fpi ~media ~quick ())

let fig11_budgets = List.filter (function Access_ctx.Budget_bytes _ -> true | _ -> false) fpi_values

let fig11 ~quick () =
  let points = backward_points ~media:Media.ssd ~quick () in
  header "Figure 11: estimated number of undo log I/Os per as-of query";
  Printf.printf "%-14s %14s\n" "back (sim s)" "undo log IOs";
  List.iter (fun p -> Printf.printf "%-14.2f %14d\n" p.back_s p.undo_ios) points;
  Printf.printf "(paper: grows linearly with the amount of history rewound)\n%!";
  let budgets =
    List.map (fun fpi -> backward_points ~fpi ~media:Media.ssd ~quick ()) fig11_budgets
  in
  (* Images lengthen the simulated history, so each policy's points sit
     at the same fractions of its own history, not at the same seconds. *)
  Printf.printf "undo log IOs under a byte budget:\n%-14s" "history back";
  List.iter (fun fpi -> Printf.printf " %8s" (fpi_label fpi)) fig11_budgets;
  print_newline ();
  List.iteri
    (fun i frac ->
      Printf.printf "%-14s" (Printf.sprintf "%.0f%%" (100.0 *. frac));
      List.iter (fun pts -> Printf.printf " %8d" (List.nth pts i).undo_ios) budgets;
      print_newline ())
    backward_fracs;
  print_string budget_note

(* --- §6.3: concurrent as-of query loop --- *)

let sec6_3 ~quick () =
  let phase = if quick then 400 else 2500 in
  (* Baseline. *)
  let s = build ~history_txns:phase () in
  let t0 = Engine.now_us s.eng in
  let base_stats = Tpcc.run_mix s.drv ~txns:phase in
  let base_elapsed = Engine.now_us s.eng -. t0 in
  let base_tpmc = Tpcc.tpmc base_stats ~elapsed_us:base_elapsed in
  (* Same phase with an as-of query loop interleaved: after every batch of
     transactions, snapshot ~25% of history back and run the stock-level
     query against it. *)
  let s2 = build ~history_txns:phase () in
  let hist_span = s2.t_run_end -. s2.t_run_start in
  let batches = 5 in
  let batch = phase / batches in
  let create_times = ref [] and query_times = ref [] in
  let t0 = Engine.now_us s2.eng in
  let stats = { Tpcc.new_orders = 0; payments = 0; order_statuses = 0; stock_levels = 0 } in
  for _ = 1 to batches do
    let s_batch = Tpcc.run_mix s2.drv ~txns:batch in
    stats.Tpcc.new_orders <- stats.Tpcc.new_orders + s_batch.Tpcc.new_orders;
    let target = Engine.now_us s2.eng -. (0.25 *. hist_span) in
    let snap, create_s =
      time_of s2.eng (fun () ->
          Database.create_as_of_snapshot s2.db ~name:(fresh_name "conc") ~wall_us:target)
    in
    let _, query_s =
      time_of s2.eng (fun () -> Tpcc.stock_level snap s2.cfg ~w:1 ~d:1 ~threshold:15)
    in
    create_times := seconds create_s :: !create_times;
    query_times := seconds query_s :: !query_times
  done;
  let conc_elapsed = Engine.now_us s2.eng -. t0 in
  let conc_tpmc = Tpcc.tpmc stats ~elapsed_us:conc_elapsed in
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  header "Section 6.3: throughput with a concurrent as-of query loop";
  Printf.printf "%-34s %12.0f\n" "baseline tpmC" base_tpmc;
  Printf.printf "%-34s %12.0f\n" "tpmC with concurrent as-of loop" conc_tpmc;
  Printf.printf "%-34s %11.0f%%\n" "throughput retained"
    (conc_tpmc /. base_tpmc *. 100.0);
  Printf.printf "%-34s %12.4f\n" "avg snapshot creation (s)" (avg !create_times);
  Printf.printf "%-34s %12.4f\n" "avg as-of stock-level query (s)" (avg !query_times);
  Printf.printf "%-34s %s\n" "log write path"
    (Format.asprintf "%a" Io_stats.pp_writes (Log_manager.stats (Database.log s2.db)));
  Printf.printf "(paper: 270k -> 180k tpmC, i.e. ~67%% retained; creation 20s, query 30s)\n%!"

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
            let disk = Database.disk s.db in
            let same =
              Lsn.equal (As_of_snapshot.split_lsn snap) (As_of_snapshot.split_lsn solo)
              && List.for_all
                   (fun i ->
                     let pid = Page_id.of_int i in
                     (not (Disk.has_page disk pid))
                     || String.equal (As_of_snapshot.page_string snap pid)
                          (As_of_snapshot.page_string solo pid))
                   (List.init (Disk.page_count disk) Fun.id)
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

(* --- §6.4: crossover between log rewind and backup roll-forward --- *)

let sec6_4 ~quick () =
  let history_txns = if quick then 1200 else 4000 in
  (* Warehouses are the unit of accessed data here: each warehouse has its
     own stock pages, so querying k warehouses touches k times the pages.
     SAS media makes the rewind's random log reads expensive, which is what
     lets a (sequential) full restore win once enough data is accessed far
     enough back. *)
  let cfg = { Tpcc.default_config with warehouses = 20; items = 1000; customers = 20 } in
  header "Section 6.4: crossover — as-of rewind vs restore, by data accessed";
  Printf.printf "%-22s %14s %14s %10s\n" "warehouses accessed" "as-of (s)" "restore (s)" "winner";
  let counts = [ 1; 2; 5; 10; 20 ] in
  List.iter
    (fun k ->
      (* Fresh engine per point: measurements must not warm each other's
         log cache. *)
      let s =
        build ~media:Media.sas ~log_cache_blocks:16 ~log_block_bytes:16384 ~cfg
          ~history_txns:0 ()
      in
      Rw_storage.Disk.extend (Database.disk s.db) (if quick then 60_000 else 150_000);
      let backup = Backup.take s.db in
      let t_start = Engine.now_us s.eng in
      ignore (Tpcc.run_mix s.drv ~txns:history_txns);
      let t_end = Engine.now_us s.eng in
      let target = t_end -. (0.9 *. (t_end -. t_start)) in
      let snap, create_s =
        time_of s.eng (fun () ->
            Database.create_as_of_snapshot s.db ~name:(fresh_name "cross") ~wall_us:target)
      in
      let _, query_s =
        time_of s.eng (fun () ->
            for w = 1 to k do
              ignore (Tpcc.stock_level snap s.cfg ~w ~d:1 ~threshold:15)
            done)
      in
      let restored, restore_s =
        time_of s.eng (fun () -> Backup.restore_as_of backup ~from:s.db ~wall_us:target)
      in
      let _, rq_s =
        time_of s.eng (fun () ->
            for w = 1 to k do
              ignore (Tpcc.stock_level restored s.cfg ~w ~d:1 ~threshold:15)
            done)
      in
      let asof = seconds (create_s +. query_s) in
      let restore = seconds (restore_s +. rq_s) in
      Printf.printf "%-22d %14.3f %14.3f %10s\n" k asof restore
        (if asof <= restore then "as-of" else "restore"))
    counts;
  Printf.printf
    "(paper: a crossover exists where restoring the full database becomes faster\n\
    \ when a large fraction of the data is accessed far in the past)\n%!"

(* --- Ablations --- *)

(* Transaction-oriented (logical) undo of the WHOLE history back to the
   split — the §4.1 alternative the paper rejects: every page touched since
   the target time must be fetched and every record undone, regardless of
   what the query reads. *)
let logical_full_rewind db ~wall_us =
  let log = Database.log db in
  let split = (Split_lsn.find ~log ~wall_us).Split_lsn.split_lsn in
  let disk = Database.disk db in
  let pages : (int, Page.t) Hashtbl.t = Hashtbl.create 256 in
  let undone = ref 0 in
  (* One sequential scan from the split, then the undo newest first. *)
  let records = ref [] in
  Log_manager.iter_range_peek log ~from:split ~upto:(Log_manager.end_lsn log) (fun _ _ decode ->
      records := decode () :: !records);
  List.iter
    (fun r ->
      match r.Log_record.body with
      | Log_record.Page_op { page; op; prev_page_lsn }
      | Log_record.Clr { page; op; prev_page_lsn; _ } ->
          let key = Page_id.to_int page in
          let p =
            match Hashtbl.find_opt pages key with
            | Some p -> p
            | None ->
                let p = Disk.read_page disk page in
                Hashtbl.replace pages key p;
                p
          in
          if Lsn.(Page.lsn p > prev_page_lsn) then begin
            Log_record.undo op p;
            Page.set_lsn p prev_page_lsn;
            incr undone
          end
      | _ -> ())
    !records;
  (Hashtbl.length pages, !undone)

let ablation ~quick () =
  let history_txns = if quick then 800 else 3000 in
  header "Ablation A: FPI frequency N vs as-of query cost (fixed time-back)";
  Printf.printf "%-8s %16s %14s\n" "N" "query time (s)" "undo log IOs";
  List.iter
    (fun fpi ->
      let s = build ~fpi ~log_cache_blocks:16 ~log_block_bytes:16384 ~history_txns () in
      let target = s.t_run_end -. (0.8 *. (s.t_run_end -. s.t_run_start)) in
      let snap =
        Database.create_as_of_snapshot s.db ~name:(fresh_name "abl") ~wall_us:target
      in
      let log_stats = Log_manager.stats (Database.log s.db) in
      let ios0 = Io_stats.copy log_stats in
      let _, query_s =
        time_of s.eng (fun () -> Tpcc.stock_level snap s.cfg ~w:1 ~d:1 ~threshold:15)
      in
      Printf.printf "%-8s %16.4f %14d\n" (fpi_label fpi) (seconds query_s)
        (Io_stats.diff log_stats ios0).Io_stats.random_reads)
    (Access_ctx.[ Off; Every_mods 50; Every_mods 10 ] @ fig11_budgets);
  print_string budget_note;
  header "Ablation B: log cache size vs as-of query cost";
  Printf.printf "%-14s %16s\n" "cache blocks" "query time (s)";
  List.iter
    (fun blocks ->
      let s = build ~log_cache_blocks:blocks ~log_block_bytes:16384 ~history_txns () in
      let target = s.t_run_end -. (0.8 *. (s.t_run_end -. s.t_run_start)) in
      let snap =
        Database.create_as_of_snapshot s.db ~name:(fresh_name "abl") ~wall_us:target
      in
      let _, query_s =
        time_of s.eng (fun () -> Tpcc.stock_level snap s.cfg ~w:1 ~d:1 ~threshold:15)
      in
      Printf.printf "%-14d %16.4f\n" blocks (seconds query_s))
    [ 8; 128; 1024 ];
  header "Ablation C: page-oriented vs transaction-oriented undo (paper §4.1)";
  let s = build ~history_txns () in
  let target = s.t_run_end -. (0.5 *. (s.t_run_end -. s.t_run_start)) in
  let snap, create_s =
    time_of s.eng (fun () ->
        Database.create_as_of_snapshot s.db ~name:(fresh_name "abl") ~wall_us:target)
  in
  let _, query_s =
    time_of s.eng (fun () -> Tpcc.stock_level snap s.cfg ~w:1 ~d:1 ~threshold:15)
  in
  let handle = Option.get (Database.snapshot_handle snap) in
  let (pages_touched, ops), logical_s =
    time_of s.eng (fun () -> logical_full_rewind s.db ~wall_us:target)
  in
  Printf.printf "page-oriented:  %.4f s, %d pages materialised (only the query's path)\n"
    (seconds (create_s +. query_s))
    (As_of_snapshot.pages_materialised handle);
  Printf.printf "txn-oriented:   %.4f s, %d pages touched, %d ops undone (whole database)\n"
    (seconds logical_s) pages_touched ops;
  Printf.printf "(paper: page-oriented undo limits work to the data actually accessed)\n%!"

let ablation_cow ~quick () =
  let txns = if quick then 600 else 3000 in
  header "Ablation D: proactive copy-on-write snapshot vs on-demand log rewind (paper §7.1)";
  (* Baseline throughput, no snapshot of any kind. *)
  let s0 = build ~history_txns:0 () in
  let t0 = Engine.now_us s0.eng in
  let st0 = Tpcc.run_mix s0.drv ~txns in
  let base_tpmc = Tpcc.tpmc st0 ~elapsed_us:(Engine.now_us s0.eng -. t0) in
  (* Same run with a standing COW snapshot created up front. *)
  let s1 = build ~history_txns:0 () in
  let cow_view = Database.create_cow_snapshot s1.db ~name:"standing" in
  let cow = Option.get (Database.cow_handle cow_view) in
  let t1 = Engine.now_us s1.eng in
  let st1 = Tpcc.run_mix s1.drv ~txns in
  let cow_tpmc = Tpcc.tpmc st1 ~elapsed_us:(Engine.now_us s1.eng -. t1) in
  (* Same run, nothing standing; one as-of query afterwards at the time
     the COW snapshot had been created. *)
  let s2 = build ~history_txns:0 () in
  let t_created = Engine.now_us s2.eng in
  ignore (Tpcc.run_mix s2.drv ~txns);
  let snap, asof_cost =
    time_of s2.eng (fun () ->
        let snap =
          Database.create_as_of_snapshot s2.db ~name:"ondemand" ~wall_us:t_created
        in
        ignore (Tpcc.stock_level snap s2.cfg ~w:1 ~d:1 ~threshold:15);
        snap)
  in
  let handle = Option.get (Database.snapshot_handle snap) in
  Printf.printf "%-44s %12.0f\n" "baseline tpmC (no snapshot)" base_tpmc;
  Printf.printf "%-44s %12.0f (%.1f%%)\n" "tpmC with standing COW snapshot" cow_tpmc
    ((cow_tpmc /. base_tpmc -. 1.0) *. 100.0);
  Printf.printf "%-44s %12d (%.1f MiB pushed proactively)\n" "COW pages copied, zero readers"
    (Rw_core.Cow_snapshot.pages_copied cow)
    (float_of_int (Rw_core.Cow_snapshot.copy_bytes cow) /. 1_048_576.0);
  Printf.printf "%-44s %12.4f s, %d pages, on demand only\n"
    "as-of snapshot + query at the same time" (seconds asof_cost)
    (As_of_snapshot.pages_materialised handle);
  Printf.printf
    "(paper: proactive snapshots are mostly wasted effort for error recovery; the\n\
    \ log already holds the undo information, so the rewind pays only when asked)\n%!"

(* --- fault-injection campaign: the crash-point property harness --- *)

module Fault_plan = Rw_storage.Fault_plan
module Prng = Rw_storage.Prng
module Row = Rw_engine.Row

(* The campaign's fault plan rates. *)
let torn_write_rate = 0.30
let bit_rot_rate = 0.02
let transient_error_rate = 0.01
let torn_log_tail_rate = 0.50

let straggler_key = 999_999L

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

(* --- E10: log-shipping replication soak --- *)

module Channel = Rw_repl.Channel
module Replica = Rw_repl.Replica
module Shipper = Rw_repl.Shipper
module Repl_failover = Rw_repl.Failover

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
  let rows = repl_soak_campaign ~seeds:(if quick then [ 11; 23 ] else [ 11; 23; 47 ]) ~quick () in
  Twin.expect sc "fault campaign" (Twin.report ~what:"replication runs" rows);
  Twin.finish sc

(* --- EXPLAIN cost table: the paper's proportional-cost claim, per query --- *)

(* One stock-level query against snapshots increasingly far back in time.
   The per-query rewind cost comes from the snapshot's own tally (exactly
   what `rewind_cli \explain` reports): pages rewound stays at the query's
   footprint while the records undone and log bytes read grow with the
   distance travelled — cost proportional to data accessed and history
   rewound, never to database size. *)
let explain_costs ~quick () =
  let history_txns = if quick then 800 else 3000 in
  header "EXPLAIN: as-of stock-level query cost vs time back (paper §5 cost claim)";
  Printf.printf "%-10s %8s %10s %10s %10s %12s %12s\n" "back" "pages" "undone" "log recs"
    "side hits" "log KiB" "query (s)";
  List.iter
    (fun frac ->
      let s = build ~log_cache_blocks:16 ~log_block_bytes:16384 ~history_txns () in
      let target = s.t_run_end -. (frac *. (s.t_run_end -. s.t_run_start)) in
      let snap =
        Database.create_as_of_snapshot s.db ~name:(fresh_name "explain") ~wall_us:target
      in
      let handle = Option.get (Database.snapshot_handle snap) in
      let log_stats = Log_manager.stats (Database.log s.db) in
      let io0 = Io_stats.copy log_stats in
      let rewinds0 = As_of_snapshot.rewind_count handle in
      let side0 = As_of_snapshot.side_file_hits handle in
      let _, query_us =
        time_of s.eng (fun () -> Tpcc.stock_level snap s.cfg ~w:1 ~d:1 ~threshold:15)
      in
      let n = As_of_snapshot.rewind_count handle - rewinds0 in
      let recent = List.filteri (fun i _ -> i < n) (As_of_snapshot.rewinds handle) in
      let undone =
        List.fold_left (fun a r -> a + r.As_of_snapshot.rc_ops) 0 recent
      in
      let log_reads =
        List.fold_left (fun a r -> a + r.As_of_snapshot.rc_log_reads) 0 recent
      in
      let iod = Io_stats.diff log_stats io0 in
      let log_kib =
        float_of_int (iod.Io_stats.random_read_bytes + iod.Io_stats.seq_read_bytes) /. 1024.0
      in
      Printf.printf "%8.0f%% %8d %10d %10d %10d %12.1f %12.4f\n" (frac *. 100.0) n undone
        log_reads
        (As_of_snapshot.side_file_hits handle - side0)
        log_kib (seconds query_us))
    [ 0.2; 0.4; 0.6; 0.8 ];
  Printf.printf
    "(pages rewound tracks the query's footprint; undone records and log bytes grow\n\
    \ with time travelled — never with database size)\n\
     %!"

(* --- segmented log: bounded resident memory under retention --- *)

(* The tentpole claim of the segmented log manager, as a long-run table:
   with retention on, the log's modeled resident memory (active tail
   payload + per-segment index overhead, the [log.resident_bytes] gauge)
   plateaus, while the total appended volume grows linearly without
   bound.  The PASS line checks the plateau is flat to within two segment
   sizes over the second half of the run and that total appended bytes
   end at least 10x the plateau. *)
let segments_experiment ~quick () =
  header "segmented log: resident memory vs appended volume (TPC-C, retention on)";
  let seg_bytes = 128 * 1024 in
  let s = build ~media:Media.ssd ~log_segment_bytes:seg_bytes ~history_txns:0 () in
  (* TPC-C batches advance the simulated clock ~30 ms each; a 60 ms undo
     interval keeps roughly two batches of history live. *)
  Database.set_retention s.db (Some 60_000.0);
  let batches = if quick then 10 else 24 in
  let per_batch = if quick then 150 else 400 in
  let log = Database.log s.db in
  Printf.printf "%8s %8s %13s %13s %13s %6s %8s %8s\n" "txns" "sim_s" "appended_kib"
    "retained_kib" "resident_kib" "live" "spilled" "dropped";
  let samples = ref [] in
  for b = 1 to batches do
    ignore (Tpcc.run_mix s.drv ~txns:per_batch);
    (* Retention rides on checkpoints. *)
    ignore (Database.checkpoint s.db);
    let ss = Log_manager.segment_stats log in
    let resident = ss.Log_manager.ss_resident_bytes in
    if 2 * b > batches then samples := resident :: !samples;
    Printf.printf "%8d %8.2f %13d %13d %13d %6d %8d %8d\n%!" (b * per_batch)
      (seconds (Engine.now_us s.eng -. s.t_run_start))
      (Log_manager.total_appended_bytes log / 1024)
      (Log_manager.retained_bytes log / 1024)
      (resident / 1024) ss.Log_manager.ss_live ss.Log_manager.ss_spilled
      ss.Log_manager.ss_dropped
  done;
  let total = Log_manager.total_appended_bytes log in
  let plateau = List.fold_left max 0 !samples in
  let spread = plateau - List.fold_left min max_int !samples in
  Printf.printf "\nplateau (max resident, 2nd half): %d KiB  spread: %d KiB  segment: %d KiB\n"
    (plateau / 1024) (spread / 1024) (seg_bytes / 1024);
  Printf.printf "total appended: %d KiB = %.1fx plateau\n" (total / 1024)
    (float_of_int total /. float_of_int (max 1 plateau));
  Printf.printf "bounded-memory check (spread <= 2 segments && appended >= 10x plateau): %s\n%!"
    (if spread <= 2 * seg_bytes && total >= 10 * plateau then "PASS" else "FAIL")

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
let e9_instant ~quick () =
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

(* --- E11: what-if — selective transaction undo vs full-database rewind --- *)

module Schema = Rw_catalog.Schema
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective

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

(* The recorded deterministic history: one update transaction per epoch.
   With [skip] this is the replay-from-scratch oracle — the same history
   minus the victim.  Returns the post-commit wall time of each epoch. *)
let wf_run_history db ~seed ~scenario ~chain_limit ~history ~skip =
  Twin.run_history db history (fun i ->
      if skip <> Some i then
        wf_apply db ~seed ~epoch:(i + 1) (wf_cells_of ~scenario ~chain_limit ~i))

(* Summaries of just the history-phase transactions, in commit order:
   entry [i] is history transaction [i]. *)
let wf_history_txns log ~before =
  let all = Log_manager.txn_summaries log in
  Array.of_list (List.filteri (fun i _ -> i >= before) all)

let whatif_soak_run ~quick ~seed ~scenario =
  let history = if quick then 20 else 40 in
  let chain_limit = history in
  let cells = (2 * history) + 4 in
  let eng, db = wf_build ~seed ~cells () in
  let log = Database.log db in
  let before = List.length (Log_manager.txn_summaries log) in
  let walls = wf_run_history db ~seed ~scenario ~chain_limit ~history ~skip:None in
  let hist = wf_history_txns log ~before in
  let victim_i =
    let v = (history / 3) + (seed mod 5) in
    match scenario with Wf_mixed -> v land lnot 1 | _ -> v
  in
  let victim = hist.(victim_i).Log_manager.ts_txn in
  let graph = Dep_graph.build ~log in
  (* The dependent set each scenario is constructed to produce. *)
  let expected_replayed =
    match scenario with
    | Wf_independent -> 0
    | Wf_chain -> history - 1 - victim_i
    | Wf_mixed -> ((history - 1) / 2) - (victim_i / 2)
  in
  (* Oracle: replay the recorded history minus the victim from scratch. *)
  let _oeng, odb = wf_build ~seed ~cells () in
  let owalls = wf_run_history odb ~seed ~scenario ~chain_limit ~history ~skip:(Some victim_i) in
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
        let run scope =
          let eng, db = wf_build ~media:Media.ssd ~seed ~cells () in
          let log = Database.log db in
          let before = List.length (Log_manager.txn_summaries log) in
          ignore (wf_run_history db ~seed ~scenario:Wf_chain ~chain_limit ~history ~skip:None);
          let hist = wf_history_txns log ~before in
          let victim = hist.(victim_i).Log_manager.ts_txn in
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
        let _oeng, odb = wf_build ~media:Media.ssd ~seed ~cells () in
        ignore
          (wf_run_history odb ~seed ~scenario:Wf_chain ~chain_limit ~history
             ~skip:(Some victim_i));
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
    let cols =
      [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]
    in
    let payload r i = Printf.sprintf "%04d-%06d-%s" r i (String.make 110 'x') in
    Database.with_txn db (fun txn ->
        ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
        for i = 1 to rows do
          Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (payload 0 i) ]
        done);
    ignore (Database.checkpoint db);
    let t_mid = Sim_clock.now_us clock in
    for r = 1 to 3 do
      Database.with_txn db (fun txn ->
          for j = 0 to rows - 1 do
            let i = (j * 37 mod rows) + 1 in
            Database.update db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (payload r i) ]
          done)
    done;
    Log_manager.flush_all (Database.log db);
    let disk = Database.disk db in
    let pages = ref [] in
    for i = Disk.page_count disk - 1 downto 0 do
      let pid = Page_id.of_int i in
      if Disk.has_page disk pid then pages := pid :: !pages
    done;
    (db, t_mid, !pages)
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

let run ?(quick = false) = function
  | Fig5 -> fig56 ~quick ~show:`Space ()
  | Fig6 -> fig56 ~quick ~show:`Throughput ()
  | Fig7 -> fig_restore_vs_asof ~media:Media.ssd ~quick ~fig:7 ()
  | Fig8 -> fig_restore_vs_asof ~media:Media.sas ~quick ~fig:8 ()
  | Fig9 -> fig_create_vs_query ~media:Media.ssd ~quick ~fig:9 ()
  | Fig10 -> fig_create_vs_query ~media:Media.sas ~quick ~fig:10 ()
  | Fig11 -> fig11 ~quick ()
  | Sec6_3 -> sec6_3 ~quick ()
  | Sec6_4 -> sec6_4 ~quick ()
  | E8 -> e8 ~quick ()
  | E9 -> e9_instant ~quick ()
  | E10 -> e10 ~quick ()
  | E11 -> e11 ~quick ()
  | E12 -> e12 ~quick ()
  | Ablation ->
      ablation ~quick ();
      ablation_cow ~quick ()
  | Faults -> faults ~quick ()
  | Explain -> explain_costs ~quick ()
  | Segments -> segments_experiment ~quick ()

let run_all ?(quick = false) () = List.iter (run ~quick) all
