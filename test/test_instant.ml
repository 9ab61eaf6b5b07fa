(* Instant restart tests: open-after-analysis, first-touch recovery,
   background sweeping, checkpoint barriers, restart redo that is
   byte-identical at every pool fan-out, and chain replay (page repair)
   agreeing with log-scan redo. *)

module Lsn = Rw_storage.Lsn
module Media = Rw_storage.Media
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Log_manager = Rw_wal.Log_manager
module Recovery = Rw_recovery.Recovery
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema
module Session_manager = Rw_session.Session_manager
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Experiments = Rw_workload.Experiments
module Twin = Rw_workload.Twin

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]

let mk_db ?(name = "inst") () =
  let clock = Sim_clock.create () in
  Database.create ~name ~clock ~media:Media.ram ()

let seed db n =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to n do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "v%d" i) ]
      done)

let churn db rounds =
  for r = 1 to rounds do
    Database.with_txn db (fun txn ->
        for i = 1 to 40 do
          Database.update db txn ~table:"t"
            [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "r%d-%d" r i) ]
        done)
  done

let rows db =
  let acc = ref [] in
  Database.scan db ~table:"t" ~f:(fun r -> acc := r :: !acc);
  List.rev !acc

(* Leave one transaction in flight, durably logged but uncommitted. *)
let straggle db =
  let txn = Database.begin_txn db in
  Database.insert db txn ~table:"t" [ Row.Int 999_999L; Row.Text "loser" ];
  Database.delete db txn ~table:"t" ~key:7L;
  Log_manager.flush_all (Database.log db)

let test_instant_basics () =
  let db = mk_db () in
  seed db 60;
  churn db 3;
  let before = rows db in
  straggle db;
  let db = Database.crash_and_reopen ~instant:true db in
  check "backlog outstanding at open" true (Database.recovery_backlog db > 0);
  (* Queries during the backlog go through first-touch recovery. *)
  check "loser insert invisible during backlog" true
    (Database.get db ~table:"t" ~key:999_999L = None);
  check "loser delete undone during backlog" true (Database.get db ~table:"t" ~key:7L <> None);
  check "committed rows all visible during backlog" true (rows db = before);
  Database.recovery_drain_all db;
  check_int "backlog drained" 0 (Database.recovery_backlog db);
  check "state intact after drain" true (rows db = before);
  match Database.last_recovery_stats db with
  | None -> Alcotest.fail "expected recovery stats"
  | Some s ->
      check "ttfq stamped" true (s.Recovery.time_to_first_query_us > 0.0);
      check "ttfr stamped" true (s.Recovery.time_to_full_recovery_us > 0.0);
      check "ttfq <= ttfr" true
        (s.Recovery.time_to_first_query_us <= s.Recovery.time_to_full_recovery_us)

let test_on_demand_counter () =
  let db = mk_db () in
  seed db 40;
  churn db 2;
  straggle db;
  let db = Database.crash_and_reopen ~instant:true db in
  let before = Metrics.counter_value Probes.recovery_pages_on_demand in
  ignore (Database.get db ~table:"t" ~key:1L);
  check "first touch counted as on-demand" true
    (Metrics.counter_value Probes.recovery_pages_on_demand > before);
  (* Background draining must not count as on-demand. *)
  let mid = Metrics.counter_value Probes.recovery_pages_on_demand in
  Database.recovery_drain_all db;
  check_int "drain not counted as on-demand" mid
    (Metrics.counter_value Probes.recovery_pages_on_demand)

let test_matches_full_replay_twin () =
  let mk () =
    let db = mk_db () in
    seed db 80;
    churn db 4;
    straggle db;
    db
  in
  let full = Database.crash_and_reopen (mk ()) in
  let inst = Database.crash_and_reopen ~instant:true (mk ()) in
  check "twin backlog outstanding" true (Database.recovery_backlog inst > 0);
  (* Spot reads during the backlog agree with the fully recovered twin. *)
  List.iter
    (fun k ->
      check
        (Printf.sprintf "key %Ld agrees during backlog" k)
        true
        (Database.get inst ~table:"t" ~key:k = Database.get full ~table:"t" ~key:k))
    [ 1L; 7L; 40L; 80L; 999_999L ];
  Database.recovery_drain_all inst;
  check "full table agrees after drain" true (rows inst = rows full)

let test_recrash_mid_backlog () =
  let db = mk_db () in
  seed db 60;
  churn db 3;
  let before = rows db in
  straggle db;
  let db = Database.crash_and_reopen ~instant:true db in
  check "backlog outstanding" true (Database.recovery_backlog db > 0);
  (* Touch a little of it, then crash again before the drain finishes. *)
  ignore (Database.get db ~table:"t" ~key:1L);
  ignore (Database.recovery_drain_step ~max_pages:2 db);
  let db = Database.crash_and_reopen db in
  check "full replay after mid-backlog crash is complete" true (rows db = before);
  check "loser still gone after re-crash" true (Database.get db ~table:"t" ~key:999_999L = None)

let test_sweeper_drains_backlog () =
  let db = mk_db () in
  seed db 60;
  churn db 3;
  let before = rows db in
  straggle db;
  let db = Database.crash_and_reopen ~instant:true db in
  check "backlog outstanding" true (Database.recovery_backlog db > 0);
  let mgr = Session_manager.create db in
  (* An idle writer: the sweeper alone must retire the backlog. *)
  let s = Session_manager.open_writer mgr ~name:"idle" ~step:(fun _ -> ()) in
  Session_manager.run mgr ~rounds:200;
  Session_manager.close mgr s;
  check_int "sweeper drained backlog" 0 (Database.recovery_backlog db);
  check "state intact after sweep" true (rows db = before)

let test_checkpoint_drains_backlog () =
  let db = mk_db () in
  seed db 60;
  churn db 3;
  straggle db;
  let db = Database.crash_and_reopen ~instant:true db in
  check "backlog outstanding" true (Database.recovery_backlog db > 0);
  ignore (Database.checkpoint db);
  check_int "checkpoint drained backlog first" 0 (Database.recovery_backlog db)

(* Per-page header fingerprint of everything on the data device: after a
   full-replay reopen (which checkpoints, flushing every recovered page)
   any divergence between fan-outs shows up here. *)
let disk_fingerprint db =
  let disk = Database.disk db in
  let acc = ref [] in
  for i = 0 to Disk.page_count disk - 1 do
    let pid = Page_id.of_int i in
    if Disk.has_page disk pid then begin
      let p = Disk.read_page_nocost disk pid in
      acc := (i, Page.lsn p, Page.slot_count p, Page.data_low p, Page.garbage p) :: !acc
    end
  done;
  List.rev !acc

(* Run [f] with the pool fan-out forced to [fanout]. *)
let at_fanout fanout f =
  Fun.protect
    ~finally:(fun () -> Rw_pool.Domain_pool.set_fanout None)
    (fun () ->
      Rw_pool.Domain_pool.set_fanout (Some fanout);
      f ())

(* Restart redo's result must not depend on the pool fan-out: fan-out 1
   (every page replayed on the calling domain) is the reference for true
   cross-domain runs at 2 and 4, and for the default core-count cap.  The
   log's counters across the restart must agree too: redo hands records
   over in one form at every fan-out. *)
let test_redo_fanout_equal () =
  let run name =
    let db = mk_db ~name () in
    seed db 80;
    churn db 4;
    straggle db;
    let log = Database.log db in
    let before = Io_stats.copy (Log_manager.stats log) in
    let db = Database.crash_and_reopen db in
    let stats = Option.get (Database.last_recovery_stats db) in
    ( rows db,
      disk_fingerprint db,
      stats.Recovery.redone_ops,
      Io_stats.diff (Log_manager.stats log) before )
  in
  let rows1, fp1, redone1, io1 = at_fanout 1 (fun () -> run "fan1") in
  check "fan-out 1 redid work" true (redone1 > 0);
  let agree label (rowsn, fpn, redonen, ion) =
    check (label ^ " rows equal fan-out 1") true (rowsn = rows1);
    check (label ^ " disk pages equal fan-out 1") true (fpn = fp1);
    check_int (label ^ " redone_ops equal fan-out 1") redone1 redonen;
    check (label ^ " log I/O counters equal fan-out 1") true (ion = io1)
  in
  List.iter
    (fun fanout ->
      let name = Printf.sprintf "fan%d" fanout in
      agree ("fan-out " ^ string_of_int fanout) (at_fanout fanout (fun () -> run name)))
    [ 2; 4 ];
  agree "default-cap" (run "fandefault")

(* One redo batch at fan-out 2 runs on two domains, so the counter grows
   by exactly 2 ("one per domain per batch"). *)
let test_parallel_partitions_counted () =
  let db = mk_db () in
  seed db 80;
  churn db 4;
  let before = Metrics.counter_value Probes.recovery_redo_partitions in
  let db = at_fanout 2 (fun () -> Database.crash_and_reopen db) in
  let stats = Option.get (Database.last_recovery_stats db) in
  let pages = Hashtbl.length stats.Recovery.analysis.Recovery.dirty_pages in
  (* The default 512-frame pool replays up to 256 pages per batch. *)
  check "one batch of at least two pages" true (pages >= 2 && pages <= 256);
  check_int "redo partitions counted per domain per batch" 2
    (Metrics.counter_value Probes.recovery_redo_partitions - before);
  check_int "eighty rows" 80 (List.length (rows db))

(* The two redo paths agree: with no transaction in flight at the crash,
   every allocated page rebuilt from its own log chain
   ([Page_repair.rebuild], which starts at the newest full-page image)
   is byte-identical — page LSN included — to the page a full restart
   (log-scan redo) left on disk. *)
let test_chain_replay_equals_log_scan () =
  let clock = Sim_clock.create () in
  let db = Database.create ~name:"chain" ~clock ~media:Media.ram ~fpi:(Rw_access.Access_ctx.Every_mods 3) () in
  seed db 80;
  churn db 4;
  let db = Database.crash_and_reopen db in
  let log = Database.log db and disk = Database.disk db in
  let compared = ref 0 in
  for i = 0 to Disk.page_count disk - 1 do
    let pid = Page_id.of_int i in
    if Disk.has_page disk pid then begin
      incr compared;
      let rebuilt = Rw_recovery.Page_repair.rebuild ~log pid in
      Page.seal rebuilt;
      check
        (Printf.sprintf "page %d rebuilt equals restarted" i)
        true
        (Bytes.equal rebuilt (Disk.read_page_nocost disk pid))
    end
  done;
  check "pages compared" true (!compared > 2)

let test_instant_fault_campaign () =
  let fault_rows =
    Experiments.crash_repair_campaign ~instant:true ~seeds:[ 11 ] ~crash_points:3 ~quick:true ()
  in
  check "campaign produced rows" true (fault_rows <> []);
  List.iter
    (fun (r : Twin.row) ->
      check
        (Printf.sprintf "instant crash-repair ok (seed %d, %s txns)" r.Twin.seed r.Twin.label)
        true (Twin.ok r))
    fault_rows

(* A restart returns a fresh handle; nothing the fresh handle keeps —
   the instant-restart backlog's clock included — may pin the pre-crash
   one, or a long-running process would hold every earlier handle. *)
let test_restart_releases_old_handle () =
  let original = Weak.create 1 in
  let restart_four () =
    let db = mk_db () in
    seed db 60;
    Weak.set original 0 (Some db);
    let db = ref db in
    for _ = 1 to 4 do
      churn !db 1;
      db := Database.crash_and_reopen ~instant:true !db;
      Database.recovery_drain_all !db
    done;
    !db
  in
  let db = restart_four () in
  Gc.full_major ();
  check "pre-crash handle collected" false (Weak.check original 0);
  check_int "survivor serves every row" 60 (List.length (rows db))

let test_restart_keeps_retention () =
  let interval = Some 3_600_000_000.0 in
  let db = mk_db () in
  seed db 10;
  Database.set_retention db interval;
  let db = Database.crash_and_reopen db in
  check "full restart keeps the interval" true (Database.retention db = interval);
  let db = Database.crash_and_reopen ~instant:true db in
  check "instant restart keeps the interval" true (Database.retention db = interval);
  Database.recovery_drain_all db;
  let db = Database.reopen_redo_only db in
  check "redo-only reopen keeps the interval" true (Database.retention db = interval)

let () =
  Alcotest.run "instant"
    [
      ( "instant-restart",
        [
          Alcotest.test_case "open after analysis, query during backlog" `Quick
            test_instant_basics;
          Alcotest.test_case "on-demand counter semantics" `Quick test_on_demand_counter;
          Alcotest.test_case "agrees with full-replay twin" `Quick test_matches_full_replay_twin;
          Alcotest.test_case "re-crash mid-backlog recovers cleanly" `Quick
            test_recrash_mid_backlog;
          Alcotest.test_case "session-manager sweeper drains backlog" `Quick
            test_sweeper_drains_backlog;
          Alcotest.test_case "checkpoint drains backlog first" `Quick
            test_checkpoint_drains_backlog;
          Alcotest.test_case "restart releases the old handle" `Quick
            test_restart_releases_old_handle;
          Alcotest.test_case "restart keeps the retention interval" `Quick
            test_restart_keeps_retention;
        ] );
      ( "parallel-redo",
        [
          Alcotest.test_case "fan-out 1/2/4 byte-equal" `Quick test_redo_fanout_equal;
          Alcotest.test_case "partition counter recorded" `Quick test_parallel_partitions_counted;
          Alcotest.test_case "chain replay equals log-scan redo" `Quick
            test_chain_replay_equals_log_scan;
        ] );
      ( "fault-campaign",
        [ Alcotest.test_case "instant crash-repair campaign" `Slow test_instant_fault_campaign ] );
    ]
