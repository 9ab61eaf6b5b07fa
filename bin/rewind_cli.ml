(* rewind_cli — interactive SQL shell over the rewinddb engine.

   Subcommands:
     repl   interactive shell (default)           rewind_cli repl --media sas
     exec   run a SQL script from a file or -e    rewind_cli exec -e "CREATE DATABASE d"
     demo   load a TPC-C-like database and open a shell against it

   The engine is in-memory and simulated: a fresh process starts empty.
   Time can be advanced from the shell with the \advance meta-command so
   as-of snapshots have a past to rewind to. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Engine = Rw_engine.Engine
module Executor = Rw_sql.Executor
module Tpcc = Rw_workload.Tpcc
module Experiments = Rw_workload.Experiments
module Twin = Rw_workload.Twin
module Trace = Rw_obs.Trace
module Metrics = Rw_obs.Metrics

let media_of_string = function
  | "ssd" -> Ok Media.ssd
  | "sas" -> Ok Media.sas
  | "ram" -> Ok Media.ram
  | s -> Error (`Msg (Printf.sprintf "unknown media %S (expected ssd, sas or ram)" s))

let print_result r = Format.printf "%a@." Executor.pp_result r

(* Live replication state for the shell's \repl meta-command: at most one
   replica per attached database, keyed by primary name. *)
let replicas : (string, Rw_repl.Replica.t * Rw_repl.Shipper.t) Hashtbl.t = Hashtbl.create 4

let repl_command eng db name args =
  let module Shipper = Rw_repl.Shipper in
  let module Replica = Rw_repl.Replica in
  let status (r, sh) =
    let state =
      match Shipper.state sh with
      | Shipper.Caught_up -> "caught-up"
      | Shipper.Lagging -> "lagging"
      | Shipper.Disconnected -> "disconnected"
    in
    Printf.printf
      "replica of %-12s %s | lag %d segment(s) | shipped %d unit(s), %d KiB | retries %d | \
       replica lsn %d, applied through %.6f s\n\
       %!"
      name state (Shipper.lag_segments sh) (Shipper.shipped_segments sh)
      (Shipper.shipped_bytes sh / 1024)
      (Shipper.retries sh)
      (Rw_storage.Lsn.to_int (Replica.next_lsn r))
      (Replica.applied_wall_us r /. 1_000_000.0)
  in
  match (args, Hashtbl.find_opt replicas name) with
  | [ "attach" ], Some _ -> Printf.printf "%s already has a replica (\\repl detach first)\n%!" name
  | [ "attach" ], None ->
      let r = Replica.of_primary ~name:(name ^ "_replica") db in
      let channel = Rw_repl.Channel.create ~clock:(Engine.clock eng) () in
      let sh = Shipper.attach ~primary:db ~replica:r ~channel () in
      Hashtbl.replace replicas name (r, sh);
      Printf.printf
        "attached replica of %s (retention now floors at its ship horizon); \\repl ship to pump\n\
         %!"
        name
  | [ "ship" ], Some (r, sh) ->
      Shipper.catch_up sh;
      status (r, sh)
  | [ "status" ], Some p -> status p
  | [ "detach" ], Some (_, sh) ->
      Shipper.detach sh;
      Hashtbl.remove replicas name;
      Printf.printf "detached (ship-horizon retention floor released)\n%!"
  | ([ "ship" ] | [ "status" ] | [ "detach" ]), None ->
      Printf.printf "no replica attached to %s (\\repl attach)\n%!" name
  | _ -> Printf.printf "usage: \\repl attach|ship|status|detach\n%!"

let run_statement session stmt =
  match Executor.run session stmt with
  | r -> print_result r
  | exception Executor.Sql_error msg -> Printf.printf "ERROR: %s\n%!" msg
  | exception Rw_sql.Parser.Parse_error msg -> Printf.printf "parse error: %s\n%!" msg
  | exception Rw_sql.Lexer.Lex_error msg -> Printf.printf "lex error: %s\n%!" msg

let meta_command session eng line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] | [ "\\quit" ] -> `Quit
  | [ "\\t" ] | [ "\\time" ] ->
      Printf.printf "simulated time: %.6f s\n%!" (Engine.now_s eng);
      `Continue
  | [ "\\save"; path ] -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              (try
                 Rw_engine.Database.save db ~path;
                 Printf.printf "saved %s to %s\n%!" name path
               with e -> Printf.printf "save failed: %s\n%!" (Printexc.to_string e));
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\load"; path ] ->
      (try
         let db =
           Rw_engine.Database.load ~clock:(Engine.clock eng) ~media:Media.ssd ~path ()
         in
         ignore (Engine.attach_database eng db);
         Printf.printf "loaded database %s (USE %s to select it)\n%!"
           (Rw_engine.Database.name db) (Rw_engine.Database.name db)
       with e -> Printf.printf "load failed: %s\n%!" (Printexc.to_string e));
      `Continue
  | [ "\\iostats" ] -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              let disk_io = Rw_storage.Disk.stats (Rw_engine.Database.disk db) in
              let log_io = Rw_wal.Log_manager.stats (Rw_engine.Database.log db) in
              Printf.printf "data : %s\n" (Format.asprintf "%a" Rw_storage.Io_stats.pp disk_io);
              Printf.printf "log  : %s\n" (Format.asprintf "%a" Rw_storage.Io_stats.pp log_io);
              Printf.printf "write: %s  (pending commits: %d)\n"
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_writes log_io)
                (Rw_engine.Database.pending_commits db);
              Printf.printf "cache: %s\n"
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_caches log_io);
              Printf.printf "fault: data %s | log %s\n%!"
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_faults disk_io)
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_faults log_io);
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\log" ] -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              let log = Rw_engine.Database.log db in
              let ss = Rw_wal.Log_manager.segment_stats log in
              Printf.printf "segments : %d live (%d KiB each) | sealed %d, spilled %d, dropped %d\n"
                ss.Rw_wal.Log_manager.ss_live
                (ss.Rw_wal.Log_manager.ss_segment_bytes / 1024)
                ss.Rw_wal.Log_manager.ss_sealed ss.Rw_wal.Log_manager.ss_spilled
                ss.Rw_wal.Log_manager.ss_dropped;
              Printf.printf "resident : %d KiB (tail payload %d KiB + index %d KiB)\n"
                (ss.Rw_wal.Log_manager.ss_resident_bytes / 1024)
                (ss.Rw_wal.Log_manager.ss_payload_bytes / 1024)
                (ss.Rw_wal.Log_manager.ss_index_bytes / 1024);
              Printf.printf "cold I/O : %d block loads from spilled segments\n"
                ss.Rw_wal.Log_manager.ss_loaded;
              Printf.printf "volume   : appended %d KiB total, retained %d KiB (lsn %d..%d)\n%!"
                (Rw_wal.Log_manager.total_appended_bytes log / 1024)
                (Rw_wal.Log_manager.retained_bytes log / 1024)
                (Rw_storage.Lsn.to_int (Rw_wal.Log_manager.first_lsn log))
                (Rw_storage.Lsn.to_int (Rw_wal.Log_manager.end_lsn log));
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\sessions" ] ->
      (* One row per attached database: primaries are writer sessions, as-of
         snapshots are reader sessions pinned to their SplitLSN.  Primaries
         also report their shared prepared-page cache. *)
      List.iter
        (fun name ->
          match Engine.find_database eng name with
          | None -> ()
          | Some db -> (
              match Rw_engine.Database.snapshot_handle db with
              | Some snap ->
                  Printf.printf
                    "%-16s reader  split-lsn %-8d pages materialised %-6d side-file hits %d\n"
                    name
                    (Rw_storage.Lsn.to_int (Rw_core.As_of_snapshot.split_lsn snap))
                    (Rw_core.As_of_snapshot.pages_materialised snap)
                    (Rw_core.As_of_snapshot.side_file_hits snap)
              | None ->
                  let cache = Rw_engine.Database.prepared_cache db in
                  Printf.printf "%-16s writer  end-lsn   %-8d active txns %d\n" name
                    (Rw_storage.Lsn.to_int
                       (Rw_wal.Log_manager.end_lsn (Rw_engine.Database.log db)))
                    (Rw_txn.Txn_manager.active_count (Rw_engine.Database.txn_manager db));
                  Printf.printf
                    "%-16s         prepared-page cache: %d entries, %d hits (%d delta), %d \
                     misses, %d invalidated, hit rate %.0f%%\n"
                    "" (Rw_core.Prepared_cache.entries cache)
                    (Rw_core.Prepared_cache.hits cache)
                    (Rw_core.Prepared_cache.delta_hits cache)
                    (Rw_core.Prepared_cache.misses cache)
                    (Rw_core.Prepared_cache.invalidations cache)
                    (Rw_core.Prepared_cache.hit_rate cache *. 100.0)))
        (Engine.database_names eng);
      Printf.printf "%!";
      `Continue
  | [ "\\faults" ] -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              let disk_io = Rw_storage.Disk.stats (Rw_engine.Database.disk db) in
              let log_io = Rw_wal.Log_manager.stats (Rw_engine.Database.log db) in
              Printf.printf "data : %s\n"
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_faults disk_io);
              Printf.printf "log  : %s\n"
                (Format.asprintf "%a" Rw_storage.Io_stats.pp_faults log_io);
              (match Rw_engine.Database.fault_plan db with
              | Some plan -> Printf.printf "plan : seed %d\n" (Rw_storage.Fault_plan.seed plan)
              | None -> Printf.printf "plan : none (no fault injection)\n");
              (match Rw_engine.Database.quarantined_pages db with
              | [] -> Printf.printf "quarantine: empty\n%!"
              | pages ->
                  Printf.printf "quarantine: %d page(s)\n" (List.length pages);
                  List.iter
                    (fun (pid, reason) ->
                      Printf.printf "  page %d: %s\n" (Rw_storage.Page_id.to_int pid) reason)
                    pages;
                  Printf.printf "%!");
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\recovery" ] -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              let backlog = Rw_engine.Database.recovery_backlog db in
              (match Rw_engine.Database.last_recovery_stats db with
              | None -> Printf.printf "recovery : never run (clean start)\n"
              | Some s ->
                  if backlog > 0 then
                    Printf.printf "recovery : instant restart, %d page(s) still in the backlog\n"
                      backlog
                  else Printf.printf "recovery : fully recovered\n";
                  Printf.printf "analysis : %.0f us (%d records scanned)\n"
                    s.Rw_recovery.Recovery.analysis_us
                    s.Rw_recovery.Recovery.analysis.Rw_recovery.Recovery.records_scanned;
                  Printf.printf "ttfq     : %.0f us to first query\n"
                    s.Rw_recovery.Recovery.time_to_first_query_us;
                  if s.Rw_recovery.Recovery.time_to_full_recovery_us > 0.0 then
                    Printf.printf "ttfr     : %.0f us to full recovery\n"
                      s.Rw_recovery.Recovery.time_to_full_recovery_us
                  else Printf.printf "ttfr     : pending (backlog draining)\n";
                  Printf.printf "work     : %d redone, %d undone, %d losers ended\n"
                    s.Rw_recovery.Recovery.redone_ops s.Rw_recovery.Recovery.undone_ops
                    s.Rw_recovery.Recovery.ended_losers;
                  match s.Rw_recovery.Recovery.tail_truncated with
                  | Some (lsn, dropped) ->
                      Printf.printf "tail     : torn, truncated at lsn %d (%d record(s) dropped)\n"
                        (Rw_storage.Lsn.to_int lsn) dropped
                  | None -> Printf.printf "tail     : clean\n");
              Printf.printf "on-demand: %d page(s) recovered on first touch (process-wide)\n%!"
                (Metrics.counter_value Rw_obs.Probes.recovery_pages_on_demand);
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\pool" ] ->
      (* The shared domain pool behind page-grouped redo, batched
         snapshot rewinds and the scrub sweep. *)
      let cap = Rw_pool.Domain_pool.fanout_cap () in
      Printf.printf "fanout cap      : %d%s\n" cap
        (if cap = Domain.recommended_domain_count () then " (default clamp)" else " (override)");
      Printf.printf "workers parked  : %d\n" (Rw_pool.Domain_pool.spawned_workers ());
      Printf.printf "pool.tasks      : %d participant slot(s) executed\n"
        (Metrics.counter_value Rw_obs.Probes.pool_tasks);
      Printf.printf "pool.wakes      : %d worker wake(s)\n"
        (Metrics.counter_value Rw_obs.Probes.pool_wakes);
      Printf.printf "parallel rewinds: %d page(s) through the staged batch pipeline\n%!"
        (Metrics.counter_value Rw_obs.Probes.snapshot_parallel_pages);
      `Continue
  | [ "\\advance"; n ] -> (
      match float_of_string_opt n with
      | Some sec when sec >= 0.0 ->
          Sim_clock.advance_us (Engine.clock eng) (sec *. 1_000_000.0);
          Printf.printf "advanced to %.6f s\n%!" (Engine.now_s eng);
          `Continue
      | _ ->
          Printf.printf "usage: \\advance <seconds>\n%!";
          `Continue)
  | "\\trace" :: args ->
      (match args with
      | [ "on" ] ->
          Trace.enable ();
          Printf.printf "trace collection on (%d events buffered)\n%!"
            (List.length (Trace.events ()))
      | [ "off" ] ->
          Trace.disable ();
          Printf.printf "trace collection off\n%!"
      | [ "clear" ] ->
          Trace.clear ();
          Printf.printf "trace buffer cleared\n%!"
      | [ "dump"; path ] ->
          Trace.dump ~path;
          Printf.printf "wrote %d events to %s (open in https://ui.perfetto.dev)\n%!"
            (List.length (Trace.events ()))
            path
      | [] | [ "status" ] ->
          Printf.printf "trace %s: %d events buffered, %d dropped\n%!"
            (if Trace.on () then "on" else "off")
            (List.length (Trace.events ()))
            (Trace.dropped ())
      | _ -> Printf.printf "usage: \\trace [on|off|status|clear|dump <path>]\n%!");
      `Continue
  | "\\metrics" :: args ->
      (match args with
      | [ "json" ] -> print_string (Metrics.to_json ())
      | [] -> Format.printf "%a%!" (fun fmt () -> Metrics.pp fmt ()) ()
      | _ -> Printf.printf "usage: \\metrics [json]\n%!");
      `Continue
  | "\\repl" :: args -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db ->
              (if Rw_engine.Database.snapshot_handle db <> None then
                 Printf.printf "%s is a read-only snapshot; replicate its primary instead\n%!"
                   name
               else repl_command eng db name args);
              `Continue
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | "\\explain" :: rest when rest <> [] ->
      run_statement session ("EXPLAIN " ^ String.concat " " rest);
      `Continue
  | "\\whatif" :: args -> (
      match Executor.current_database session with
      | None ->
          Printf.printf "no database selected (USE <db>)\n%!";
          `Continue
      | Some name -> (
          match Engine.find_database eng name with
          | Some db -> (
              let log = Rw_engine.Database.log db in
              let graph = Rw_whatif.Dep_graph.build ~log in
              match args with
              | [] ->
                  Printf.printf
                    "dependency graph: %d committed transactions, %d edges\n\
                     usage: \\whatif <txn-id> for one transaction's closure;\n\
                    \       REWIND TRANSACTION <id> [AS <view>] to remove it\n%!"
                    (Rw_whatif.Dep_graph.node_count graph)
                    (Rw_whatif.Dep_graph.edge_count graph);
                  `Continue
              | [ id ] -> (
                  match int_of_string_opt id with
                  | None ->
                      Printf.printf "usage: \\whatif [txn-id]\n%!";
                      `Continue
                  | Some id -> (
                      let txn = Rw_wal.Txn_id.of_int id in
                      match Rw_whatif.Dep_graph.find graph txn with
                      | None ->
                          Printf.printf "no committed transaction %d in the retained log\n%!"
                            id;
                          `Continue
                      | Some node ->
                          let open Rw_whatif.Dep_graph in
                          let open Rw_wal.Log_manager in
                          let direct = dependents graph txn in
                          let closure = closure graph txn in
                          let pages =
                            List.sort_uniq Rw_storage.Page_id.compare
                              (List.concat_map (fun n -> List.map fst n.ts_writes) closure)
                          in
                          Printf.printf
                            "transaction %d: %d page ops over %d pages, committed at %.6f s%s\n"
                            id node.ts_ops (List.length node.ts_writes)
                            (node.ts_commit_wall_us /. 1e6)
                            (if node.ts_structural then " [structural]" else "");
                          Printf.printf
                            "direct dependents : %d\n\
                             downstream closure: %d transactions touching %d pages\n"
                            (List.length direct)
                            (List.length closure - 1)
                            (List.length pages);
                          Printf.printf "closure           : %s\n"
                            (String.concat ", "
                               (List.map
                                  (fun n -> string_of_int (Rw_wal.Txn_id.to_int n.ts_txn))
                                  closure));
                          Printf.printf
                            "REWIND TRANSACTION %d removes it and replays the %d dependents;\n\
                             add AS <view> for a read-only what-if preview\n%!"
                            id
                            (List.length closure - 1);
                          `Continue))
              | _ ->
                  Printf.printf "usage: \\whatif [txn-id]\n%!";
                  `Continue)
          | None ->
              Printf.printf "current database vanished\n%!";
              `Continue))
  | [ "\\help" ] | [ "\\h" ] ->
      print_endline
        "meta commands:\n\
        \  \\help              this help\n\
        \  \\time              show the simulated clock\n\
        \  \\advance <secs>    advance the simulated clock\n\
        \  \\save <path>       persist the current database to a file\n\
        \  \\load <path>       load a previously saved database\n\
        \  \\iostats           I/O counters incl. log flush coalescing\n\
        \  \\log               log segment lifecycle and resident-memory stats\n\
        \  \\sessions          writer/reader sessions and the prepared-page cache\n\
        \  \\faults            fault-injection counters and quarantined pages\n\
        \  \\recovery          restart mode, backlog, and recovery timings\n\
        \  \\pool              shared domain pool: fan-out cap, workers, wake counters\n\
        \  \\metrics [json]    engine metrics registry snapshot\n\
        \  \\trace on|off|status|clear|dump <path>\n\
        \                     trace collector; dump writes Chrome trace_event JSON\n\
        \  \\explain SELECT .. run a query and report its rewind cost\n\
        \  \\whatif [txn-id]   transaction dependency graph / one txn's closure\n\
        \  \\repl attach|ship|status|detach\n\
        \                     log-shipping replica of the current database\n\
        \  \\q                 quit\n\
         statements: CREATE/DROP TABLE|INDEX|DATABASE, INSERT, SELECT, UPDATE, DELETE,\n\
        \  BEGIN/COMMIT/ROLLBACK, USE, SHOW TABLES|DATABASES|HISTORY, CHECKPOINT,\n\
        \  CREATE DATABASE s AS SNAPSHOT OF db AS OF <t|-secs>,\n\
        \  ALTER DATABASE db SET UNDO_INTERVAL = <n> SECONDS|MINUTES|HOURS,\n\
        \  REWIND TRANSACTION <id> [AS <view>] (alias: UNDO TRANSACTION <id>)";
      `Continue
  | _ ->
      ignore session;
      Printf.printf "unknown meta command (\\help for help)\n%!";
      `Continue

let repl_loop eng session =
  let buffer = Buffer.create 256 in
  let rec loop () =
    let prompt =
      if Buffer.length buffer > 0 then "   ...> "
      else
        match Executor.current_database session with
        | Some db -> Printf.sprintf "%s> " db
        | None -> "rewind> "
    in
    print_string prompt;
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> print_newline ()
    | line when Buffer.length buffer = 0 && String.length (String.trim line) > 0
                && (String.trim line).[0] = '\\' -> (
        match meta_command session eng line with `Quit -> () | `Continue -> loop ())
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' || String.trim text = "" then begin
          Buffer.clear buffer;
          let text = String.trim text in
          if text <> "" then run_statement session text
        end;
        loop ()
  in
  print_endline "rewinddb shell — \\help for help, \\q to quit";
  loop ()

let make_engine media =
  let eng = Engine.create ~media () in
  (eng, Executor.create_session eng)

let repl media =
  let eng, session = make_engine media in
  repl_loop eng session

let exec media script file trace_path =
  let eng, session = make_engine media in
  let source =
    match (script, file) with
    | Some s, None -> s
    | None, Some path ->
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
    | _ -> failwith "exec: provide exactly one of -e <sql> or a file"
  in
  ignore eng;
  if trace_path <> None then Trace.enable ();
  (match Executor.run_script session source with
  | results -> List.iter print_result results
  | exception Executor.Sql_error msg -> Printf.printf "ERROR: %s\n" msg
  | exception Rw_sql.Parser.Parse_error msg -> Printf.printf "parse error: %s\n" msg);
  match trace_path with
  | Some path ->
      Trace.dump ~path;
      Printf.printf "trace: %d events written to %s\n" (List.length (Trace.events ())) path
  | None -> ()

let demo media txns =
  let eng, session = make_engine media in
  let db = Engine.create_database eng ~checkpoint_interval_us:1_000_000.0 "tpcc" in
  Rw_engine.Database.set_group_commit db ~max_batch_bytes:(64 * 1024) ~max_delay_us:2_000.0;
  Printf.printf "loading TPC-C-like demo database...\n%!";
  Tpcc.load db Tpcc.default_config;
  let drv = Tpcc.create db Tpcc.default_config in
  Printf.printf "running %d transactions of history...\n%!" txns;
  ignore (Tpcc.run_mix drv ~txns);
  ignore (Rw_engine.Database.flush_commits db);
  ignore (Executor.run session "USE tpcc");
  Printf.printf "log write path: %s\n"
    (Format.asprintf "%a" Rw_storage.Io_stats.pp_writes
       (Rw_wal.Log_manager.stats (Rw_engine.Database.log db)));
  Printf.printf
    "done: %.3f simulated seconds of history.  Try:\n\
    \  SELECT COUNT(*) FROM orders;\n\
    \  CREATE DATABASE past AS SNAPSHOT OF tpcc AS OF -1;\n\
    \  SELECT COUNT(*) FROM past.orders;\n"
    (Engine.now_s eng);
  repl_loop eng session

(* The soak subcommands share one path: announce the campaign, run it,
   print its table and exit 1 unless every row passed. *)
let soak ~title ~what seeds quick campaign =
  Printf.printf "%s | seeds %s%s\n%!" title
    (String.concat "," (List.map string_of_int seeds))
    (if quick then " (quick)" else "");
  if not (Twin.report ~what (campaign ())) then exit 1

let faultsoak seeds crash_points quick =
  soak
    ~title:(Printf.sprintf "fault-injection soak: %d crash points each" crash_points)
    ~what:"crash points" seeds quick
    (fun () -> Experiments.crash_repair_campaign ~seeds ~crash_points ~quick ())

let replsoak seeds quick =
  soak
    ~title:
      ("replication soak: scenarios "
      ^ String.concat "," (List.map Experiments.repl_scenario_name Experiments.repl_scenarios))
    ~what:"replication runs" seeds quick
    (fun () -> Experiments.repl_soak_campaign ~seeds ~quick ())

let whatifsoak seeds quick =
  soak
    ~title:
      ("what-if soak: scenarios "
      ^ String.concat "," (List.map Experiments.whatif_scenario_name Experiments.whatif_scenarios))
    ~what:"what-if runs" seeds quick
    (fun () -> Experiments.whatif_soak_campaign ~seeds ~quick ())

(* --- cmdliner wiring --- *)

open Cmdliner

let media_conv =
  Arg.conv (media_of_string, fun fmt m -> Format.fprintf fmt "%s" m.Media.name)

let media_term =
  Arg.(
    value & opt media_conv Media.ssd
    & info [ "media" ] ~docv:"MEDIA" ~doc:"Media model: ssd, sas or ram.")

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL shell") Term.(const repl $ media_term)

let exec_cmd =
  let script =
    Arg.(value & opt (some string) None & info [ "e" ] ~docv:"SQL" ~doc:"SQL script to run.")
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"Collect a trace of the run and write Chrome trace_event JSON to $(docv).")
  in
  Cmd.v (Cmd.info "exec" ~doc:"Execute a SQL script")
    Term.(const exec $ media_term $ script $ file $ trace)

let demo_cmd =
  let txns =
    Arg.(value & opt int 2000 & info [ "txns" ] ~docv:"N" ~doc:"History transactions to run.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Shell against a pre-loaded TPC-C-like database")
    Term.(const demo $ media_term $ txns)

let faultsoak_cmd =
  let seeds =
    Arg.(
      value
      & opt (list int) [ 11; 23; 47 ]
      & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated fault-plan seeds.")
  in
  let points =
    Arg.(
      value & opt int 4
      & info [ "crash-points" ] ~docv:"N" ~doc:"Random crash points per seed.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Shrink the workload for smoke runs.") in
  Cmd.v
    (Cmd.info "faultsoak"
       ~doc:
         "Crash/corruption soak: run TPC-C under fault injection, crash at random points, \
          recover, repair, and verify against a fault-free oracle (exit 1 on any violation)")
    Term.(const faultsoak $ seeds $ points $ quick)

let replsoak_cmd =
  let seeds =
    Arg.(
      value
      & opt (list int) [ 11; 23; 47 ]
      & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated workload/channel seeds.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Shrink the workload for smoke runs.") in
  Cmd.v
    (Cmd.info "replsoak"
       ~doc:
         "Replication soak: replica crash mid-catch-up, sustained lag, network partition and \
          primary failover, each converging byte-equal (canonical page form) to a fault-free \
          single-node oracle (exit 1 on any divergence)")
    Term.(const replsoak $ seeds $ quick)

let whatifsoak_cmd =
  let seeds =
    Arg.(
      value
      & opt (list int) [ 11; 23; 47 ]
      & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated workload seeds.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Shrink the workload for smoke runs.") in
  Cmd.v
    (Cmd.info "whatifsoak"
       ~doc:
         "What-if soak: selectively remove a committed transaction per dependency scenario \
          (chain, independent, mixed), publish a what-if view and an in-place repair, and \
          verify both byte-equal (canonical masked pages + rows + pre-victim as-of) against \
          an oracle replaying the history minus the victim from scratch (exit 1 on any \
          inequality)")
    Term.(const whatifsoak $ seeds $ quick)

let main =
  Cmd.group ~default:Term.(const repl $ media_term)
    (Cmd.info "rewind_cli" ~version:"1.0.0"
       ~doc:"Transaction-log based point-in-time query engine (VLDB'12 reproduction)")
    [ repl_cmd; exec_cmd; demo_cmd; faultsoak_cmd; replsoak_cmd; whatifsoak_cmd ]

let () = exit (Cmd.eval main)
