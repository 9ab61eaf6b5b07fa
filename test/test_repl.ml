(* Log-shipping replication (ISSUE 8).

   The properties under test:
   - shipping is exact: a replica pumped to Caught_up serves as-of reads
     byte-equal (canonical page form) to the primary at the same wall
     time, and its log is a byte-identical prefix of the primary's;
   - the channel's seeded faults (drop, duplicate, delay, partition) cost
     retries but never correctness — duplicate delivery is idempotent,
     a partition disconnects and a healed link reconnects;
   - a replica killed mid-catch-up reopens from its persisted recovery
     checkpoint (analysis does not rescan shipped history), replays
     committed-only records past it, and converges byte-equal to both the
     primary and a never-crashed twin — at two seeds;
   - retention on the primary never strands an attached lagging replica
     (ship-horizon floor), and detaching releases the floor;
   - failover promotes the replica into a primary that serves correct
     pre-failover as-of queries, and the demoted primary rejoins as a
     replica by truncating its divergent tail and converging on the new
     timeline. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Lsn = Rw_storage.Lsn
module Log_manager = Rw_wal.Log_manager
module Io_stats = Rw_storage.Io_stats
module Log_record = Rw_wal.Log_record
module Recovery = Rw_recovery.Recovery
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Channel = Rw_repl.Channel
module Replica = Rw_repl.Replica
module Shipper = Rw_repl.Shipper
module Failover = Rw_repl.Failover
module Tpcc = Rw_workload.Tpcc
module Twin = Rw_experiments.Twin
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A TPC-C primary with committed history and small log segments (so
   catch-up takes several shipping units). *)
let build_primary ?(seed = 42) ?(segment_bytes = 16384) ?(txns = 60) () =
  let eng = Engine.create ~media:Media.ram () in
  let db =
    Engine.create_database eng ~pool_capacity:1024 ~log_segment_bytes:segment_bytes "prim"
  in
  let cfg = { Tpcc.small_config with Tpcc.seed } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  if txns > 0 then ignore (Tpcc.run_mix drv ~txns);
  (eng, db, cfg, drv)

(* Canonical-page equality of two engines that replayed the same log, as
   of one wall time, over every page either engine allocated (page LSNs
   included).  Split LSNs are deliberately not compared — snapshot
   creation itself appends a checkpoint record to the engine it runs on,
   so two engines' log ends drift apart by exactly those
   (page-state-neutral) records once either has served a snapshot. *)
let snap_equal a b ~wall_us =
  let compared, differing = Twin.page_diff ~mask_lsn:false (a, wall_us) (b, wall_us) in
  compared > 0 && differing = 0

let log_prefix_equal primary replica_log =
  let pl = Database.log primary in
  let upto = Log_manager.end_lsn replica_log in
  let mine = ref [] and theirs = ref [] in
  Log_manager.iter_range_peek replica_log ~from:(Log_manager.first_lsn replica_log) ~upto
    (fun lsn _ decode -> mine := (lsn, Log_record.encode (decode ())) :: !mine);
  Log_manager.iter_range_peek pl ~from:(Log_manager.first_lsn replica_log) ~upto
    (fun lsn _ decode -> theirs := (lsn, Log_record.encode (decode ())) :: !theirs);
  !mine = !theirs

(* --- export / ingest primitives --- *)

let test_export_ingest_roundtrip () =
  let _eng, db, _cfg, _drv = build_primary ~txns:25 () in
  let src = Database.log db in
  let clock = Sim_clock.create () in
  let dst =
    Log_manager.create ~clock ~media:Media.ram ~segment_bytes:(Log_manager.segment_size src) ()
  in
  let rec pump from =
    match Log_manager.export_from src ~from with
    | None -> ()
    | Some ex ->
        check_int "applied all" (List.length ex.Log_manager.ex_entries)
          (Log_manager.ingest_entries dst ex.Log_manager.ex_entries);
        (* duplicate delivery is an idempotent no-op *)
        check_int "dup skipped" 0 (Log_manager.ingest_entries dst ex.Log_manager.ex_entries);
        pump ex.Log_manager.ex_next
  in
  pump (Log_manager.first_lsn src);
  check "copy ends at durable horizon"
    (Lsn.equal (Log_manager.end_lsn dst) (Log_manager.flushed_lsn src))
    true;
  let dump_upto log upto =
    List.filter (fun (l, _) -> Lsn.(l < upto)) (Log_manager.dump_entries log)
  in
  check "byte-identical prefix"
    (dump_upto src (Log_manager.flushed_lsn src) = Log_manager.dump_entries dst)
    true;
  (* a gap is rejected *)
  (match Log_manager.dump_entries dst with
  | (_, data) :: _ ->
      let bogus = Lsn.of_int (Lsn.to_int (Log_manager.end_lsn dst) + 64) in
      check "gap rejected"
        (try
           ignore (Log_manager.ingest_entries dst [ (bogus, data) ]);
           false
         with Invalid_argument _ -> true)
        true
  | [] -> Alcotest.fail "empty dump");
  (* lag measure reaches zero *)
  check_int "caught up" 0 (Log_manager.segments_behind src ~from:(Log_manager.end_lsn dst))

let test_truncate_from () =
  let _eng, db, _cfg, _drv = build_primary ~txns:20 () in
  let log = Database.log db in
  let entries = Log_manager.dump_entries log in
  let n = List.length entries in
  let cut_lsn, _ = List.nth entries (n / 2) in
  let keep = List.filter (fun (l, _) -> Lsn.(l < cut_lsn)) entries in
  let epoch0 = Log_manager.invalidation_epoch log in
  let dropped = Log_manager.truncate_from log cut_lsn in
  check_int "dropped count" (n - List.length keep) dropped;
  check "end at cut" (Lsn.equal (Log_manager.end_lsn log) cut_lsn) true;
  check "epoch bumped" (Log_manager.invalidation_epoch log > epoch0) true;
  check "survivors intact" (Log_manager.dump_entries log = keep) true;
  check_int "noop above end" 0 (Log_manager.truncate_from log (Log_manager.end_lsn log))

(* --- ship basics + stale horizon --- *)

let test_ship_basics () =
  let eng, db, _cfg, drv = build_primary ~txns:40 () in
  let t_mid = Engine.now_us eng in
  let replica = Replica.of_primary ~name:"r1" db in
  ignore (Tpcc.run_mix drv ~txns:40);
  let t_end = Engine.now_us eng in
  let sh =
    Shipper.attach ~primary:db ~replica
      ~channel:(Channel.create ~clock:(Engine.clock eng) ())
      ()
  in
  check "lagging before pump" (Shipper.state sh = Shipper.Lagging) true;
  (* reads past the applied horizon refuse rather than lie *)
  check "stale horizon raised"
    (try
       ignore (Replica.query_as_of replica ~name:"early" ~wall_us:t_end);
       false
     with Replica.Stale_horizon _ -> true)
    true;
  Shipper.catch_up sh;
  check "caught up" (Shipper.state sh = Shipper.Caught_up) true;
  check "lag zero" (Shipper.lag_segments sh = 0) true;
  check "shipped something" (Shipper.shipped_segments sh > 0) true;
  check "log is byte-identical prefix" (log_prefix_equal db (Database.log (Replica.db replica))) true;
  check "as-of byte-equal (mid)" (snap_equal db (Replica.db replica) ~wall_us:t_mid) true;
  (* a local replica read at an applied time works and agrees row-for-row *)
  let view = Replica.query_as_of replica ~name:"ok" ~wall_us:t_mid in
  let prim_view = Database.create_as_of_snapshot ~shared:false db ~name:"okp" ~wall_us:t_mid in
  check "rows agree" (Twin.dump view = Twin.dump prim_view) true;
  Shipper.detach sh

(* --- the applied horizon and recovery checkpoint come from the directory --- *)

let test_ingest_horizon_from_directory () =
  let eng, db, _cfg, drv = build_primary ~txns:10 () in
  let replica = Replica.of_primary ~name:"r1" db in
  for _ = 1 to 4 do
    ignore (Tpcc.run_mix drv ~txns:10);
    ignore (Database.checkpoint db)
  done;
  ignore (Tpcc.run_mix drv ~txns:5);
  let sh =
    Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock:(Engine.clock eng) ()) ()
  in
  Shipper.catch_up sh;
  let log = Database.log db in
  let wall = ref 0.0 in
  Log_manager.iter_controls log ~from:Lsn.nil (fun _ kind _ w ->
      (match kind with
      | Log_record.K_commit | Log_record.K_checkpoint -> wall := Float.max !wall w
      | _ -> ());
      true);
  let ckpt = ref Lsn.nil in
  Log_manager.iter_checkpoints_rev log (fun l _ ->
      ckpt := l;
      false);
  check "the shipped history has a checkpoint" false (Lsn.is_nil !ckpt);
  check "applied horizon is the newest commit/checkpoint wall" true
    (Replica.applied_wall_us replica = !wall);
  check "recovery checkpoint is the newest shipped checkpoint" true
    (Lsn.equal (Log_manager.last_checkpoint (Database.log (Replica.db replica))) !ckpt);
  Shipper.detach sh

(* --- catch-up reads each shipped byte once, with the same counters at any fan-out --- *)

let test_ingest_reads_once () =
  let run fanout =
    Fun.protect
      ~finally:(fun () -> Rw_pool.Domain_pool.set_fanout None)
      (fun () ->
        Rw_pool.Domain_pool.set_fanout (Some fanout);
        let _eng, db, _cfg, drv = build_primary ~txns:20 () in
        let replica = Replica.of_primary ~name:"r1" db in
        ignore (Tpcc.run_mix drv ~txns:40);
        let log = Database.log (Replica.db replica) in
        let st = Log_manager.stats log in
        let s0 = Io_stats.copy st in
        let rec pump shipments =
          match Log_manager.export_from (Database.log db) ~from:(Replica.next_lsn replica) with
          | None -> shipments
          | Some ex ->
              let shipped =
                List.fold_left
                  (fun acc (_, data) -> acc + String.length data)
                  0 ex.Log_manager.ex_entries
              in
              let before = st.Io_stats.seq_read_bytes in
              ignore (Replica.ingest replica ex : int);
              check_int "replica log read exactly the shipped bytes" shipped
                (st.Io_stats.seq_read_bytes - before);
              pump (shipments + 1)
        in
        check "several shipments" (pump 0 > 1) true;
        check "caught-up rows equal primary" (Twin.dump (Replica.db replica) = Twin.dump db) true;
        Io_stats.diff st s0)
  in
  let io1 = run 1 in
  let io2 = run 2 in
  check "fan-out 2 catch-up log I/O counters equal fan-out 1" (io2 = io1) true

(* --- channel faults: drop/dup/delay cost retries, never correctness --- *)

let test_channel_faults () =
  let eng, db, _cfg, drv = build_primary ~seed:7 ~txns:30 () in
  let replica = Replica.of_primary ~name:"rf" db in
  ignore (Tpcc.run_mix drv ~txns:50);
  let chan =
    Channel.create ~clock:(Engine.clock eng) ~seed:7
      ~rates:{ Channel.drop = 0.25; duplicate = 0.25; delay = 0.2; partition = 0.0 }
      ()
  in
  let sh = Shipper.attach ~primary:db ~replica ~channel:chan ~max_retries:50 () in
  Shipper.catch_up sh;
  check "caught up despite faults" (Shipper.state sh = Shipper.Caught_up) true;
  let st = Channel.stats chan in
  check "drops occurred" (st.Channel.dropped > 0) true;
  check "dups occurred" (st.Channel.duplicated > 0) true;
  check "retries counted" (Shipper.retries sh > 0) true;
  check "faulty link, identical log"
    (log_prefix_equal db (Database.log (Replica.db replica)))
    true;
  let wall = Engine.now_us eng in
  check "faulty link, byte-equal state" (snap_equal db (Replica.db replica) ~wall_us:wall) true;
  Shipper.detach sh

let test_partition_reconnect () =
  let eng, db, _cfg, drv = build_primary ~seed:11 ~txns:30 () in
  let replica = Replica.of_primary ~name:"rp" db in
  ignore (Tpcc.run_mix drv ~txns:30);
  let chan = Channel.create ~clock:(Engine.clock eng) ~seed:11 () in
  let sh = Shipper.attach ~primary:db ~replica ~channel:chan ~max_retries:3 () in
  Channel.partition chan ~sends:1000;
  Shipper.catch_up sh;
  check "disconnected under partition" (Shipper.state sh = Shipper.Disconnected) true;
  check "nothing shipped" (Shipper.shipped_segments sh = 0) true;
  Channel.heal chan;
  Shipper.catch_up sh;
  check "reconnected and caught up" (Shipper.state sh = Shipper.Caught_up) true;
  check "converged after heal" (log_prefix_equal db (Database.log (Replica.db replica))) true;
  Shipper.detach sh

(* --- replica crash mid-catch-up: resume from the recovery checkpoint --- *)

let crash_resume_run seed =
  let eng, db, cfg, drv = build_primary ~seed ~txns:30 () in
  let replica = Replica.of_primary ~name:"rc" db in
  let twin = Replica.of_primary ~name:"rt" db in
  (* History with periodic primary checkpoints, so shipments carry
     checkpoint records and the replica's recovery checkpoint advances. *)
  for _ = 1 to 4 do
    ignore (Tpcc.run_mix drv ~txns:20);
    ignore (Database.checkpoint db)
  done;
  let clock = Engine.clock eng in
  let sh = Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock ()) () in
  let sh_twin = Shipper.attach ~primary:db ~replica:twin ~channel:(Channel.create ~clock ()) () in
  (* Partial catch-up: pump roughly half the backlog, then kill. *)
  let lag0 = Shipper.lag_segments sh in
  while Shipper.lag_segments sh > max 1 (lag0 / 2) do
    ignore (Shipper.step sh)
  done;
  let rlog = Database.log (Replica.db replica) in
  check "recovery checkpoint advanced past bootstrap"
    (Lsn.(Log_manager.last_checkpoint rlog > Log_manager.first_lsn rlog))
    true;
  Replica.crash_and_reopen replica;
  (* Redo-only restart: nothing appended, analysis resumed from the
     persisted master record rather than the start of shipped history. *)
  let stats = Option.get (Database.last_recovery_stats (Replica.db replica)) in
  check_int "no undo on replica restart" 0 stats.Recovery.undone_ops;
  let rlog = Database.log (Replica.db replica) in
  check "bounded rescan"
    (stats.Recovery.analysis.Recovery.records_scanned < Log_manager.record_count rlog)
    true;
  Shipper.catch_up sh;
  Shipper.catch_up sh_twin;
  check "crashed replica caught up" (Shipper.state sh = Shipper.Caught_up) true;
  let wall = Engine.now_us eng in
  ignore cfg;
  check "byte-equal to primary"
    (snap_equal db (Replica.db replica) ~wall_us:wall)
    true;
  check "byte-equal to never-crashed twin"
    (snap_equal (Replica.db twin) (Replica.db replica) ~wall_us:wall)
    true;
  check "rows equal to primary" (Twin.dump (Replica.db replica) = Twin.dump db) true;
  Shipper.detach sh;
  Shipper.detach sh_twin

let test_crash_resume_seed1 () = crash_resume_run 42
let test_crash_resume_seed2 () = crash_resume_run 1337

(* --- retention floor: a lagging replica is never stranded --- *)

let test_retention_floor () =
  let eng, db, _cfg, drv = build_primary ~seed:5 ~segment_bytes:8192 ~txns:20 () in
  let replica = Replica.of_primary ~name:"rr" db in
  let sh =
    Shipper.attach ~primary:db ~replica
      ~channel:(Channel.create ~clock:(Engine.clock eng) ())
      ()
  in
  (* Aggressive retention while the replica lags: checkpoints ride
     enforcement, but the ship-horizon floor must pin the log. *)
  Database.set_retention db (Some 1000.0);
  for _ = 1 to 5 do
    ignore (Tpcc.run_mix drv ~txns:25);
    ignore (Database.checkpoint db)
  done;
  let plog = Database.log db in
  check "floor held retention back"
    (Lsn.(Log_manager.first_lsn plog <= Replica.next_lsn replica))
    true;
  check "replica is genuinely behind" (Shipper.lag_segments sh > 0) true;
  (* The lagging replica still catches up — nothing it needs was dropped. *)
  Shipper.catch_up sh;
  check "caught up after aggressive retention" (Shipper.state sh = Shipper.Caught_up) true;
  check "state agrees" (Twin.dump (Replica.db replica) = Twin.dump db) true;
  (* Detaching releases the floor: retention may now pass the old horizon.
     Three more rounds, because the cut keeps one checkpoint of history
     below the newest checkpoint older than the retention horizon. *)
  let pinned = Replica.next_lsn replica in
  Shipper.detach sh;
  for _ = 1 to 3 do
    ignore (Tpcc.run_mix drv ~txns:25);
    ignore (Database.checkpoint db)
  done;
  check "floor released after detach" (Lsn.(Log_manager.first_lsn plog > pinned)) true

(* --- failover + rejoin --- *)

let test_failover_rejoin () =
  let eng, db, _cfg, drv = build_primary ~seed:3 ~txns:40 () in
  let replica = Replica.of_primary ~name:"fo" db in
  ignore (Tpcc.run_mix drv ~txns:40);
  let clock = Engine.clock eng in
  let sh = Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock ()) () in
  Shipper.catch_up sh;
  let t_pre = Engine.now_us eng in
  let pre_dump = Twin.dump db in
  (* Divergent tail: committed work past the last shipment that will
     never reach the replica — lost by the failover, truncated at rejoin. *)
  ignore (Tpcc.run_mix drv ~txns:10);
  Shipper.detach sh;
  (* Primary dies.  Promote the (only) replica. *)
  check "candidate selection" (Failover.most_caught_up [ replica ] == replica) true;
  let new_primary, at = Failover.promote replica in
  check "promotion horizon below dead primary's end"
    (Lsn.(at <= Log_manager.end_lsn (Database.log db)))
    true;
  (* The new primary serves correct as-of queries for pre-failover times. *)
  let v = Database.create_as_of_snapshot new_primary ~name:"pre" ~wall_us:t_pre in
  check "pre-failover as-of on promoted primary" (Twin.dump v = pre_dump) true;
  (* New timeline: fresh traffic on the new primary. *)
  let drv2 = Tpcc.create new_primary { _cfg with Tpcc.seed = 999 } in
  ignore (Tpcc.run_mix drv2 ~txns:30);
  (* The demoted primary rejoins as a replica: divergent tail truncated,
     pages rewound, committed-only replay past its recovery point. *)
  let rejoined = Failover.rejoin ~name:"demoted" ~at db in
  check "divergent tail cut" (Lsn.equal (Replica.next_lsn rejoined) at) true;
  let sh2 =
    Shipper.attach ~primary:new_primary ~replica:rejoined ~channel:(Channel.create ~clock ()) ()
  in
  Shipper.catch_up sh2;
  check "rejoined replica caught up" (Shipper.state sh2 = Shipper.Caught_up) true;
  check "rejoined log equals new primary's"
    (log_prefix_equal new_primary (Database.log (Replica.db rejoined)))
    true;
  check "rejoined state byte-equal"
    (snap_equal new_primary (Replica.db rejoined) ~wall_us:(Engine.now_us eng))
    true;
  check "rejoined rows equal" (Twin.dump (Replica.db rejoined) = Twin.dump new_primary) true;
  Shipper.detach sh2

(* A demoted primary whose crash tears its log tail: [rejoin] crashes the
   log (leaving a torn stump past the failover point) and then cuts the
   divergent tail with [truncate_from], which must drop the stump without
   reading it or unindexing it twice.  The rejoined replica's indexes equal
   a fresh restore of its log, and it converges on the new timeline. *)
let test_rejoin_torn_tail () =
  let module Row = Rw_engine.Row in
  let module Schema = Rw_catalog.Schema in
  let tears = ref 0 in
  for seed = 1 to 8 do
    let plan = Rw_storage.Fault_plan.create ~torn_log_tail_rate:1.0 ~seed () in
    let clock = Sim_clock.create () in
    let db =
      Database.create ~name:"prim" ~clock ~media:Media.ram ~log_segment_bytes:16384
        ~fault_plan:plan ()
    in
    let cfg = { Tpcc.small_config with Tpcc.seed } in
    Tpcc.load db cfg;
    ignore (Database.checkpoint db);
    let drv = Tpcc.create db cfg in
    ignore (Tpcc.run_mix drv ~txns:20);
    let replica = Replica.of_primary ~name:"fo" db in
    let sh = Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock ()) () in
    Shipper.catch_up sh;
    (* A committed divergent tail, then a straggler's unflushed records. *)
    ignore (Tpcc.run_mix drv ~txns:5);
    Shipper.detach sh;
    let cols =
      [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]
    in
    Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
    let straggler = Database.begin_txn db in
    for i = 1 to 20 do
      Database.insert db straggler ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "in flight" ]
    done;
    let new_primary, at = Failover.promote replica in
    let log = Database.log db in
    let injected () = (Log_manager.stats log).Io_stats.faults_injected in
    let injected0 = injected () in
    let rejoined = Failover.rejoin ~name:"demoted" ~at db in
    if injected () > injected0 then incr tears;
    check "divergent tail cut" (Lsn.equal (Replica.next_lsn rejoined) at) true;
    let rlog = Database.log (Replica.db rejoined) in
    let copy =
      Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram
        ~segment_bytes:(Log_manager.segment_size rlog) ()
    in
    Log_manager.restore_entries copy (Log_manager.dump_entries rlog);
    check "rejoined txn index equals a fresh restore's"
      (Log_manager.txn_summaries rlog = Log_manager.txn_summaries copy)
      true;
    let controls l =
      let acc = ref [] in
      Log_manager.iter_controls l ~from:Lsn.nil (fun lsn kind txn wall ->
          acc := (lsn, kind, txn, wall) :: !acc;
          true);
      !acc
    in
    check "rejoined control directory equals a fresh restore's" (controls rlog = controls copy) true;
    let drv2 = Tpcc.create new_primary { cfg with Tpcc.seed = 999 } in
    ignore (Tpcc.run_mix drv2 ~txns:10);
    let sh2 =
      Shipper.attach ~primary:new_primary ~replica:rejoined ~channel:(Channel.create ~clock ()) ()
    in
    Shipper.catch_up sh2;
    check "rejoined replica caught up" (Shipper.state sh2 = Shipper.Caught_up) true;
    check "rejoined log equals new primary's" (log_prefix_equal new_primary rlog) true;
    check "rejoined rows equal" (Twin.dump (Replica.db rejoined) = Twin.dump new_primary) true;
    Shipper.detach sh2
  done;
  check "some seed tore the demoted primary's tail" true (!tears > 0)

(* --- the replication soak at one seed (rewind_cli replsoak --seeds 11 --quick) --- *)

let test_repl_soak () =
  let live () = Metrics.gauge_value Probes.snapshots_live in
  let live0 = live () in
  let rows = Rw_experiments.Soaks.repl_soak_campaign ~seeds:[ 11 ] ~quick:true () in
  check "every twin snapshot dropped" (live () = live0) true;
  check_int "four scenarios" 4 (List.length rows);
  List.iter
    (fun (r : Twin.row) ->
      List.iter
        (fun (name, holds) -> check (Printf.sprintf "%s: %s" r.Twin.label name) holds true)
        r.Twin.checks;
      check (r.Twin.label ^ ": pages compared") (Twin.count r "cmp_pages" > 0) true)
    rows

let () =
  Alcotest.run "repl"
    [
      ( "log-shipping",
        [
          Alcotest.test_case "export/ingest roundtrip" `Quick test_export_ingest_roundtrip;
          Alcotest.test_case "truncate_from" `Quick test_truncate_from;
          Alcotest.test_case "ship basics + stale horizon" `Quick test_ship_basics;
          Alcotest.test_case "channel faults" `Quick test_channel_faults;
          Alcotest.test_case "partition disconnect/reconnect" `Quick test_partition_reconnect;
          Alcotest.test_case "crash mid-catch-up resumes from checkpoint (seed 42)" `Quick
            test_crash_resume_seed1;
          Alcotest.test_case "crash mid-catch-up resumes from checkpoint (seed 1337)" `Quick
            test_crash_resume_seed2;
          Alcotest.test_case "retention floor protects lagging replica" `Quick
            test_retention_floor;
          Alcotest.test_case "failover + rejoin" `Quick test_failover_rejoin;
          Alcotest.test_case "replsoak seed 11 quick" `Quick test_repl_soak;
          Alcotest.test_case "catch-up reads each shipped byte once" `Quick test_ingest_reads_once;
          Alcotest.test_case "ingest horizon from the control directory" `Quick
            test_ingest_horizon_from_directory;
          Alcotest.test_case "rejoin over a torn tail" `Quick test_rejoin_torn_tail;
        ] );
    ]
