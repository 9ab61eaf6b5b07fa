module Media = Rw_storage.Media
module Io_stats = Rw_storage.Io_stats
module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Log_manager = Rw_wal.Log_manager
module Log_record = Rw_wal.Log_record
module Backup = Rw_engine.Backup
module As_of_snapshot = Rw_core.As_of_snapshot
module Split_lsn = Rw_core.Split_lsn
module Access_ctx = Rw_access.Access_ctx
open Harness

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

let fig5 = fig56 ~show:`Space
let fig6 = fig56 ~show:`Throughput

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

let fig7 = fig_restore_vs_asof ~media:Media.ssd ~fig:7
let fig8 = fig_restore_vs_asof ~media:Media.sas ~fig:8

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

let fig9 = fig_create_vs_query ~media:Media.ssd ~fig:9
let fig10 = fig_create_vs_query ~media:Media.sas ~fig:10

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

let ablation_abc ~quick () =
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

let ablation ~quick () =
  ablation_abc ~quick ();
  ablation_cow ~quick ()

(* --- EXPLAIN cost table: the paper's proportional-cost claim, per query --- *)

(* One stock-level query against snapshots increasingly far back in time.
   The per-query rewind cost comes from the snapshot's own tally (exactly
   what `rewind_cli \explain` reports): pages rewound stays at the query's
   footprint while the records undone and log bytes read grow with the
   distance travelled — cost proportional to data accessed and history
   rewound, never to database size. *)
let explain ~quick () =
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
let segments ~quick () =
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
