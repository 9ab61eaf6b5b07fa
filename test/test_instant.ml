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
module Soaks = Rw_experiments.Soaks
module Twin = Rw_experiments.Twin

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

(* Redo takes no overlap credit (DESIGN.md §15): its gather, the frame
   fetches, reports no costs.  So on priced media the modeled time of
   [Recovery.recover] (a simulated-clock delta) is the same at every
   fan-out, whatever the host's core count, and so are the pages it
   leaves. *)
let test_redo_takes_no_credit () =
  let run fanout =
    at_fanout fanout (fun () ->
        let db = Database.create ~name:"credit" ~clock:(Sim_clock.create ()) ~media:Media.ssd () in
        seed db 80;
        churn db 4;
        straggle db;
        let db = Database.crash_and_reopen db in
        let stats = Option.get (Database.last_recovery_stats db) in
        ( stats.Recovery.time_to_first_query_us,
          (stats.Recovery.redone_ops, disk_fingerprint db, rows db) ))
  in
  let us1, ((redone1, _, _) as pages1) = run 1 in
  check "fan-out 1 redid priced work" true (redone1 > 0 && us1 > 0.0);
  List.iter
    (fun fanout ->
      let us, pages = run fanout in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "fan-out %d: modeled recover time" fanout)
        us1 us;
      check (Printf.sprintf "fan-out %d: recovered pages equal fan-out 1" fanout) true
        (pages = pages1))
    [ 2; 4 ]

(* One redo batch at fan-out 2 runs on two domains, so the counter grows
   by exactly 2 ("one per domain per batch"). *)
let test_parallel_partitions_counted () =
  let db = mk_db () in
  seed db 80;
  churn db 4;
  let before = Metrics.counter_value Probes.recovery_redo_partitions in
  let db = at_fanout 2 (fun () -> Database.crash_and_reopen db) in
  let stats = Option.get (Database.last_recovery_stats db) in
  let pages = Rw_storage.Int_tbl.length stats.Recovery.analysis.Recovery.dirty_pages in
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
    Soaks.crash_repair_campaign ~instant:true ~seeds:[ 11 ] ~crash_points:3 ~quick:true ()
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

(* A loser on pages A and B ties them into one recovery group.  With
   images off and the log truncated past A's history, a corrupt A can
   only be quarantined; the drain must then quarantine B with it, naming
   A, and not drop B from the backlog unrecovered — a later read of B
   would return its on-disk image with the loser neither redone nor
   undone. *)
let test_quarantined_group () =
  let db =
    Database.create ~name:"qgroup" ~clock:(Sim_clock.create ()) ~media:Media.ram
      ~fpi:Rw_access.Access_ctx.Off ()
  in
  Database.with_txn db (fun txn ->
      List.iter
        (fun table ->
          ignore (Database.create_table db txn ~table ~columns:cols ());
          Database.insert db txn ~table [ Row.Int 1L; Row.Text "committed" ])
        [ "a"; "b" ]);
  ignore (Database.checkpoint db);
  let log = Database.log db in
  Log_manager.truncate_before log (Log_manager.end_lsn log);
  let root table = (Option.get (Database.table db table)).Schema.root in
  let a = root "a" and b = root "b" in
  let txn = Database.begin_txn db in
  List.iter
    (fun table -> Database.update db txn ~table [ Row.Int 1L; Row.Text "loser" ])
    [ "a"; "b" ];
  Log_manager.flush_all log;
  Disk.corrupt_stored (Database.disk db) a;
  let db = Database.crash_and_reopen ~instant:true db in
  check "A and B in the backlog" true (Database.recovery_backlog db >= 2);
  Database.recovery_drain_all db;
  check_int "backlog drained" 0 (Database.recovery_backlog db);
  (match Database.get db ~table:"b" ~key:1L with
  | _ -> Alcotest.fail "B served although its group could not be recovered"
  | exception Rw_recovery.Page_repair.Quarantined pid ->
      check "the read names B" true (Page_id.equal pid b));
  let quarantined = Database.quarantined_pages db in
  check "A quarantined" true (List.mem_assoc a quarantined);
  match List.assoc_opt b quarantined with
  | None -> Alcotest.fail "B not quarantined"
  | Some reason ->
      let named = Printf.sprintf "page %d" (Page_id.to_int a) in
      let rec has i =
        i + String.length named <= String.length reason
        && (String.sub reason i (String.length named) = named || has (i + 1))
      in
      check ("B's reason names A: " ^ reason) true (has 0)

(* --- the drain against full restart, on generated crash histories --- *)

module Buffer_pool = Rw_buffer.Buffer_pool

(* A crash history over six one-page tables: transactions that commit,
   roll back (leaving CLRs) or stay in flight.  Every in-flight
   transaction writes a row of table 0 beside its other rows, so the
   losers share pages and form one recovery group, whose CLRs then get
   the LSNs full restart gives them.  In-flight transactions write keys of
   their own (10 + their index), so no other transaction waits on their
   row locks.  An [Idle] transaction logs its Begin and nothing else and
   stays in flight: a loser with no page.  [touches] are tables read on
   demand before the drain. *)
type outcome = Commit | Rollback | In_flight | Idle

type history = { txns : ((int * int) list * outcome) list; touches : int list }

let history_gen =
  let open QCheck.Gen in
  let write = pair (0 -- 5) (1 -- 8) in
  let txn =
    frequency [ (3, return Commit); (2, return Rollback); (2, return In_flight); (1, return Idle) ]
    >>= fun o ->
    if o = Idle then return ([], o) else list_size (1 -- 3) write >>= fun ws -> return (ws, o)
  in
  map2 (fun txns touches -> { txns; touches }) (list_size (1 -- 8) txn) (list_size (0 -- 2) (0 -- 5))

let show_history h =
  let show_txn (ws, o) =
    Printf.sprintf "%s[%s]"
      (match o with Commit -> "C" | Rollback -> "R" | In_flight -> "F" | Idle -> "I")
      (String.concat ";" (List.map (fun (t, k) -> Printf.sprintf "t%d.%d" t k) ws))
  in
  Printf.sprintf "txns %s touches [%s]"
    (String.concat " " (List.map show_txn h.txns))
    (String.concat ";" (List.map string_of_int h.touches))

let prop_cols =
  [ { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]

(* Build the history and crash: the pool is dropped, torn writes applied
   and the unflushed log tail lost (the in-flight records were forced).
   Returns the crashed disk, log and clock, and the tables' root pages. *)
let crash_history h =
  let clock = Sim_clock.create () in
  let db =
    Database.create ~name:"hist" ~clock ~media:Media.ssd ~fpi:Rw_access.Access_ctx.Off ()
  in
  let table i = Printf.sprintf "t%d" i in
  let cell ~txn ~key = Row.Text (Printf.sprintf "v%02d.%02d" txn key) in
  Database.with_txn db (fun txn ->
      for i = 0 to 5 do
        ignore (Database.create_table db txn ~table:(table i) ~columns:prop_cols ());
        List.iter
          (fun key -> Database.insert db txn ~table:(table i) [ Row.Int (Int64.of_int key); cell ~txn:0 ~key ])
          [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 11; 12; 13; 14; 15; 16; 17; 18 ]
      done);
  ignore (Database.checkpoint db);
  let in_flight = ref 0 in
  List.iteri
    (fun i (writes, outcome) ->
      let txn = Database.begin_txn db in
      let writes =
        match outcome with
        | In_flight ->
            incr in_flight;
            (0, 0) :: writes |> List.map (fun (t, _) -> (t, 9 + !in_flight)) |> List.sort_uniq compare
        | Commit | Rollback | Idle -> writes
      in
      List.iter
        (fun (t, key) ->
          Database.update db txn ~table:(table t) [ Row.Int (Int64.of_int key); cell ~txn:(i + 1) ~key ])
        writes;
      match outcome with
      | Commit -> Database.commit db txn
      | Rollback -> Database.rollback db txn
      | In_flight | Idle -> ())
    h.txns;
  let log = Database.log db and disk = Database.disk db in
  Log_manager.flush_all log;
  let roots = Array.init 6 (fun i -> (Option.get (Database.table db (table i))).Schema.root) in
  Buffer_pool.drop_all (Database.pool db);
  ignore (Disk.apply_crash disk);
  Log_manager.crash log;
  (disk, log, clock, roots)

let disk_pages disk =
  List.init (Disk.page_count disk) (fun i ->
      let pid = Page_id.of_int i in
      if Disk.has_page disk pid then Some (Disk.read_page_nocost disk pid) else None)

let counts (s : Recovery.stats) = (s.Recovery.redone_ops, s.Recovery.undone_ops, s.Recovery.ended_losers)

(* Instant open, the touches, then drains of [budget] pages until the
   backlog is empty.  The source records each write and each log force,
   so the publish order can be checked.  Returns the recovered pages, the
   stats counts, the events (newest first) and the modeled time from the
   first touch to the end of the drain. *)
let instant_run h ~budget =
  let disk, log, clock, roots = crash_history h in
  let inst = Recovery.Instant.open_ ~now_us:(fun () -> Sim_clock.now_us clock) ~log () in
  let events = ref [] in
  let base = Buffer_pool.of_disk disk in
  let note f pid p =
    events := `Write (Page_id.to_int pid) :: !events;
    f pid p
  in
  let source =
    {
      base with
      Buffer_pool.write = note base.Buffer_pool.write;
      write_seq = Option.map note base.Buffer_pool.write_seq;
    }
  in
  Recovery.Instant.attach inst ~source
    ~wal_flush:(fun lsn ->
      events := `Force :: !events;
      Log_manager.flush log ~upto:lsn)
    ~quarantine:(Rw_recovery.Page_repair.Quarantine.create ());
  let t0 = Sim_clock.now_us clock in
  List.iter
    (fun t ->
      let pid = roots.(t) in
      Page.release (Recovery.Instant.touch inst pid (source.Buffer_pool.read pid)))
    h.touches;
  let left = Recovery.Instant.backlog inst and drained = ref 0 and calls = ref 0 in
  while Recovery.Instant.backlog inst > 0 && !calls <= left do
    incr calls;
    drained := !drained + Recovery.Instant.drain inst ~max_pages:budget
  done;
  let dt = Sim_clock.now_us clock -. t0 in
  (disk_pages disk, counts (Recovery.Instant.stats inst), !events, dt, (left, !drained))

(* Each pass forces the log once, before its first write, and then
   writes its pages in ascending page-id order; no page is written
   twice. *)
let publish_ok events =
  let written = Hashtbl.create 16 in
  let rec go last = function
    | [] -> true
    | `Force :: rest -> go (-1) rest
    | `Write k :: rest ->
        k > last && (not (Hashtbl.mem written k)) && (Hashtbl.replace written k (); go k rest)
  in
  go (-1) (List.rev events)

(* Regression: a loser that logged only its Begin touches no page, so no
   recovery group holds it.  The instant restart must still end it, with
   the same End records, pages and counts as full restart, whether or not
   other losers form a group. *)
let test_begin_only_loser_ended () =
  List.iter
    (fun h ->
      let disk, log, _, _ = crash_history h in
      let pool =
        Buffer_pool.create ~capacity:64 ~source:(Buffer_pool.of_disk disk)
          ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn) ()
      in
      let full = Recovery.recover ~log ~pool () in
      Buffer_pool.flush_all pool;
      let pages = disk_pages disk and expected = counts full in
      let got, c, _, _, _ = instant_run h ~budget:max_int in
      let _, _, ended = c in
      let _, _, expected_ended = expected in
      check_int (show_history h ^ ": losers ended") expected_ended ended;
      check (show_history h ^ ": counts") true (c = expected);
      check (show_history h ^ ": pages") true
        (List.equal (Option.equal Bytes.equal) got pages))
    [
      { txns = [ ([], Idle) ]; touches = [] };
      { txns = [ ([], Idle); ([ (1, 2) ], Commit); ([], Idle) ]; touches = [ 1 ] };
      { txns = [ ([ (1, 2) ], In_flight); ([], Idle); ([ (2, 3) ], Commit) ]; touches = [ 0 ] };
      { txns = [ ([], Idle); ([ (3, 4) ], In_flight); ([ (2, 5) ], In_flight) ]; touches = [] };
    ]

let drain_prop =
  QCheck.Test.make ~name:"drain agrees with full restart" ~count:30
    (QCheck.make history_gen ~print:show_history) (fun h ->
      let disk, log, _, _ = crash_history h in
      let pool =
        Buffer_pool.create ~capacity:64 ~source:(Buffer_pool.of_disk disk)
          ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn) ()
      in
      let full = Recovery.recover ~log ~pool () in
      Buffer_pool.flush_all pool;
      let pages = disk_pages disk and expected = counts full in
      List.iter
        (fun budget ->
          let times =
            List.map
              (fun fanout ->
                let got, c, events, dt, (left, drained) =
                  at_fanout fanout (fun () -> instant_run h ~budget)
                in
                let where = Printf.sprintf "budget %d, fan-out %d" budget fanout in
                if not (List.equal (Option.equal Bytes.equal) got pages) then
                  QCheck.Test.fail_reportf "%s: pages differ from full restart's" where;
                if c <> expected then
                  QCheck.Test.fail_reportf "%s: redone/undone/ended differ from full restart's" where;
                if not (publish_ok events) then
                  QCheck.Test.fail_reportf "%s: a page published twice or out of order" where;
                if drained <> left then
                  QCheck.Test.fail_reportf "%s: drains returned %d of %d pages" where drained left;
                dt)
              [ 1; 2; 4 ]
          in
          if List.exists (fun dt -> dt <> List.hd times) times then
            QCheck.Test.fail_reportf "budget %d: modeled drain time differs across fan-outs" budget)
        [ 1; 3; max_int ];
      true)

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
          Alcotest.test_case "quarantined member quarantines its group" `Quick
            test_quarantined_group;
          Alcotest.test_case "a Begin-only loser is ended" `Quick test_begin_only_loser_ended;
          QCheck_alcotest.to_alcotest drain_prop;
        ] );
      ( "parallel-redo",
        [
          Alcotest.test_case "fan-out 1/2/4 byte-equal" `Quick test_redo_fanout_equal;
          Alcotest.test_case "partition counter recorded" `Quick test_parallel_partitions_counted;
          Alcotest.test_case "chain replay equals log-scan redo" `Quick
            test_chain_replay_equals_log_scan;
          Alcotest.test_case "redo takes no overlap credit" `Quick test_redo_takes_no_credit;
        ] );
      ( "fault-campaign",
        [ Alcotest.test_case "instant crash-repair campaign" `Slow test_instant_fault_campaign ] );
    ]
