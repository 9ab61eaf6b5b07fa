(* Fault injection, detection, and repair: log-record CRCs, torn log
   tails, checksum-failure repair from the page chain, transient-error
   retry, quarantine, and the randomized crash-point property campaign. *)

module Lsn = Rw_storage.Lsn
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Io_stats = Rw_storage.Io_stats
module Fault_plan = Rw_storage.Fault_plan
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Page_repair = Rw_recovery.Page_repair
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Experiments = Rw_workload.Experiments
module Twin = Rw_workload.Twin

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]

let mk_db ?fault_plan ?(name = "flt") () =
  let clock = Sim_clock.create () in
  let db = Database.create ~name ~clock ~media:Media.ram ?fault_plan () in
  (db, clock)

let seed_table db n =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to n do
        Database.insert db txn ~table:"t"
          [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "v%d" i) ]
      done)

let rows db =
  let acc = ref [] in
  Database.scan db ~table:"t" ~f:(fun r -> acc := r :: !acc);
  List.rev !acc

(* --- log record CRC trailer --- *)

let test_record_crc () =
  let r =
    Log_record.make ~txn:(Rw_wal.Txn_id.of_int 7)
      (Log_record.Page_op
         {
           page = Page_id.of_int 3;
           prev_page_lsn = Lsn.of_int 11;
           op = Log_record.Insert_row { slot = 0; row = "payload" };
         })
  in
  let s = Log_record.encode r in
  check "intact record checks" true (Log_record.check s);
  check "decode round-trips" true (Log_record.decode s = r);
  (* Flip one payload byte: check fails.  (Decode does not check the CRC;
     the log checks it where bytes enter — see the load and ingest
     tests.) *)
  let b = Bytes.of_string s in
  Bytes.set b (String.length s / 2) '\xff';
  let s' = Bytes.to_string b in
  check "corrupt record fails check" false (Log_record.check s');
  (* A torn prefix also fails cleanly. *)
  check "torn prefix fails check" false (Log_record.check (String.sub s 0 (String.length s - 3)))

(* --- a saved image's log is checked where it is loaded --- *)

(* A saved database image, and the file offset of every log record's
   bytes in it: the log is the image's last section, one (i64 LSN, u32
   length, bytes) entry per record. *)
let saved_image =
  lazy
    (let db, clock = mk_db ~name:"saved" () in
     seed_table db 12;
     Sim_clock.advance_us clock 1000.0;
     Database.with_txn db (fun txn ->
         Database.insert db txn ~table:"t" [ Row.Int 100L; Row.Text "late" ]);
     let path = Filename.temp_file "rewind_flip" ".img" in
     Database.save db ~path;
     let image = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     let entries = Log_manager.dump_entries (Database.log db) in
     let section = List.fold_left (fun a (_, d) -> a + 12 + String.length d) 0 entries in
     let records, _ =
       List.fold_left
         (fun (acc, at) (_, d) -> ((at + 12, String.length d) :: acc, at + 12 + String.length d))
         ([], String.length image - section)
         entries
     in
     (image, Array.of_list (List.rev records)))

let load_image image =
  let path = Filename.temp_file "rewind_flip" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc image);
      Database.load ~clock:(Sim_clock.create ()) ~media:Media.ram ~path ())

let test_clean_image_loads () =
  let image, _ = Lazy.force saved_image in
  check_int "the saved rows load" 13 (List.length (rows (load_image image)))

(* One flipped byte anywhere in any log record of a saved image: the
   load refuses the record where its bytes enter the log. *)
let load_refusal_prop =
  QCheck.Test.make ~name:"a flipped log byte fails the load" ~count:40
    QCheck.(triple small_nat (int_bound 100_000) (int_range 1 255))
    (fun (r, off, x) ->
      let image, records = Lazy.force saved_image in
      let at, len = records.(r mod Array.length records) in
      let b = Bytes.of_string image in
      let at = at + (off mod len) in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x));
      match load_image (Bytes.to_string b) with
      | _ -> false
      | exception Log_record.Corrupt_record -> true)

(* --- torn log tail at crash, truncated by recovery --- *)

let test_torn_log_tail () =
  (* The tear draws from the plan's PRNG, so sweep seeds until a run tears;
     invariants must hold in every run regardless. *)
  let saw_tear = ref false in
  for seed = 1 to 12 do
    let plan = Fault_plan.create ~torn_log_tail_rate:1.0 ~seed () in
    let db, _clock = mk_db ~fault_plan:plan ~name:(Printf.sprintf "tear%d" seed) () in
    seed_table db 20;
    let committed = rows db in
    (* In-flight work: appended to the log but never committed/flushed. *)
    let straggler = Database.begin_txn db in
    Database.insert db straggler ~table:"t" [ Row.Int 999L; Row.Text "inflight" ];
    let db2 = Database.crash_and_reopen db in
    (match Database.last_recovery_stats db2 with
    | Some s when s.Rw_recovery.Recovery.tail_truncated <> None ->
        saw_tear := true;
        check "tear detected and counted" true
          ((Log_manager.stats (Database.log db2)).Io_stats.corruptions_detected > 0)
    | _ -> ());
    check "committed rows survive the torn tail" true (rows db2 = committed);
    check "in-flight insert did not survive" true
      (Database.get db2 ~table:"t" ~key:999L = None)
  done;
  check "at least one seed produced a torn tail" true !saw_tear

(* --- checksum failure on fetch -> transparent repair from the log --- *)

let test_detect_and_repair () =
  let db, _clock = mk_db () in
  seed_table db 30;
  ignore (Database.checkpoint db);
  let before = rows db in
  let root = (Option.get (Database.table db "t")).Schema.root in
  let disk = Database.disk db in
  Disk.corrupt_stored disk root;
  Rw_buffer.Buffer_pool.drop_all (Database.pool db);
  (* The next read detects the damage and rebuilds the page in place. *)
  check "rows read back through repair" true (rows db = before);
  let st = Disk.stats disk in
  check "detection counted" true (st.Io_stats.corruptions_detected >= 1);
  check "repair counted" true (st.Io_stats.pages_repaired >= 1);
  (* The repaired image is durable: a raw re-read now verifies. *)
  check "stored page verifies after repair" true (Disk.verify_checksums disk)

(* --- transient errors absorbed by bounded retry --- *)

let test_transient_retry () =
  let plan = Fault_plan.create ~transient_error_rate:0.2 ~seed:5 () in
  let db, _clock = mk_db ~fault_plan:plan () in
  seed_table db 40;
  ignore (Database.checkpoint db);
  Rw_buffer.Buffer_pool.drop_all (Database.pool db);
  check_int "all rows readable under transient errors" 40 (List.length (rows db));
  let st = Disk.stats (Database.disk db) in
  check "faults were injected" true (st.Io_stats.faults_injected > 0);
  check "retries absorbed them" true (st.Io_stats.io_retries > 0)

(* --- unrepairable page -> quarantine, rest of the database serves --- *)

let test_quarantine () =
  let db, _clock = mk_db () in
  seed_table db 10;
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"other" ~columns:cols ());
      Database.insert db txn ~table:"other" [ Row.Int 1L; Row.Text "fine" ]);
  ignore (Database.checkpoint db);
  (* Drop all log history: the page chain is gone, repair has no base. *)
  let log = Database.log db in
  Log_manager.truncate_before log (Log_manager.end_lsn log);
  let root = (Option.get (Database.table db "t")).Schema.root in
  Disk.corrupt_stored (Database.disk db) root;
  Rw_buffer.Buffer_pool.drop_all (Database.pool db);
  (try
     ignore (rows db);
     Alcotest.fail "expected Quarantined"
   with Page_repair.Quarantined pid ->
     check "quarantined the damaged page" true (Page_id.equal pid root));
  check_int "page listed in quarantine" 1 (List.length (Database.quarantined_pages db));
  (* Graceful degradation: the other table still serves. *)
  check "other table still readable" true
    (Database.get db ~table:"other" ~key:1L <> None);
  (* Repeated reads fail fast with the same typed error. *)
  (try ignore (rows db) with Page_repair.Quarantined _ -> ())

(* --- scrub repairs residual damage in bulk --- *)

let test_scrub () =
  let db, _clock = mk_db () in
  seed_table db 30;
  ignore (Database.checkpoint db);
  let disk = Database.disk db in
  let victims = ref [] in
  for i = 0 to Disk.page_count disk - 1 do
    let pid = Page_id.of_int i in
    if Disk.has_page disk pid && List.length !victims < 3 then begin
      Disk.corrupt_stored disk pid;
      victims := pid :: !victims
    end
  done;
  Rw_buffer.Buffer_pool.drop_all (Database.pool db);
  let repaired = Database.scrub db in
  check "scrub repaired every victim" true (repaired >= List.length !victims);
  check "disk fully verifies after scrub" true (Disk.verify_checksums disk)

(* --- the crash-point property campaign --- *)

let test_crash_point_campaign () =
  let live () = Metrics.gauge_value Probes.snapshots_live in
  let live0 = live () in
  let rows =
    Experiments.crash_repair_campaign ~seeds:[ 11; 23 ] ~crash_points:5 ~quick:true ()
  in
  check "every twin snapshot dropped" true (live () = live0);
  check_int "ten crash points" 10 (List.length rows);
  List.iter
    (fun (r : Twin.row) ->
      let label p = Printf.sprintf "seed %d, %s txns: %s" r.Twin.seed r.Twin.label p in
      check (label "TPC-C invariants hold") true (Twin.check r "cons");
      check (label "in-flight txn gone") true (Twin.check r "loser");
      check (label "state agrees with oracle") true (Twin.check r "state");
      check (label "as-of query agrees with oracle") true (Twin.check r "asof");
      check (label "pages equal the oracle's") true (Twin.check r "pages");
      check (label "pages were compared") true (Twin.count r "cmp_pages" > 0);
      check_int (label "nothing quarantined") 0 (Twin.count r "quarnt"))
    rows;
  (* The campaign must actually exercise the machinery, not just pass. *)
  let total name = List.fold_left (fun a r -> a + Twin.count r name) 0 rows in
  check "faults were injected" true (total "injected" > 0);
  check "corruptions were detected" true (total "detected" > 0);
  check "pages were repaired" true (total "repaired" > 0)

let () =
  Alcotest.run "fault"
    [
      ( "log",
        [
          Alcotest.test_case "record crc" `Quick test_record_crc;
          Alcotest.test_case "clean image loads" `Quick test_clean_image_loads;
          QCheck_alcotest.to_alcotest load_refusal_prop;
          Alcotest.test_case "torn tail truncated" `Quick test_torn_log_tail;
        ] );
      ( "page",
        [
          Alcotest.test_case "detect and repair" `Quick test_detect_and_repair;
          Alcotest.test_case "transient retry" `Quick test_transient_retry;
          Alcotest.test_case "quarantine" `Quick test_quarantine;
          Alcotest.test_case "scrub" `Quick test_scrub;
        ] );
      ("campaign", [ Alcotest.test_case "crash points" `Slow test_crash_point_campaign ]);
    ]
