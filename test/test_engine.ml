(* End-to-end engine tests: typed rows, DML, snapshots vs recorded history,
   backup/restore baseline, the engine registry. *)

module Lsn = Rw_storage.Lsn
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Prng = Rw_storage.Prng
module Schema = Rw_catalog.Schema
module Database = Rw_engine.Database
module Backup = Rw_engine.Backup
module Engine = Rw_engine.Engine
module Row = Rw_engine.Row

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [
    { Schema.name = "id"; ctype = Schema.Int };
    { Schema.name = "amount"; ctype = Schema.Int };
    { Schema.name = "note"; ctype = Schema.Text };
  ]

let mk_db ?(name = "db") () =
  let clock = Sim_clock.create () in
  Database.create ~name ~clock ~media:Media.ram ()

(* --- typed rows --- *)

let test_row_roundtrip () =
  let table =
    { Schema.id = 1; name = "t"; kind = Schema.Btree_table; root = Rw_storage.Page_id.of_int 2; columns = cols; indexes = [] }
  in
  let row = [ Row.Int 7L; Row.Int 100L; Row.Text "hello" ] in
  let key, payload = Row.encode table row in
  check "key extracted" true (key = 7L);
  check "roundtrip" true (Row.decode table ~key ~payload = row)

let test_row_type_errors () =
  let table =
    { Schema.id = 1; name = "t"; kind = Schema.Btree_table; root = Rw_storage.Page_id.of_int 2; columns = cols; indexes = [] }
  in
  let expect_error row =
    match Row.encode table row with
    | exception Row.Type_error _ -> ()
    | _ -> Alcotest.fail "expected type error"
  in
  expect_error [ Row.Text "k"; Row.Int 1L; Row.Text "x" ];
  expect_error [ Row.Int 1L; Row.Text "wrong"; Row.Text "x" ];
  expect_error [ Row.Int 1L ];
  expect_error []

(* In-place column reads over random schemas mixing INT and TEXT columns
   and random rows.  The payload sits inside a larger buffer with junk on
   both sides, so a reader that trusted the buffer's end instead of the
   span's would read past the row.  Every INT column read in place equals
   the column of a reference decode written here with the codec; the key
   column, a TEXT column and a column past the last raise Type_error, as
   does any column whose field a truncated payload cuts.  Row.decode
   equals the reference decode. *)
let ref_decode (table : Schema.table) ~key ~payload =
  let d = Rw_wal.Codec.decoder payload in
  Row.Int key
  :: List.map
       (fun (c : Schema.column) ->
         match c.ctype with
         | Schema.Int -> Row.Int (Rw_wal.Codec.get_i64 d)
         | Schema.Text -> Row.Text (Rw_wal.Codec.get_str16 d))
       (List.tl table.Schema.columns)

let row_reader_test =
  let open QCheck in
  let value =
    Gen.(
      oneof
        [
          map (fun v -> Row.Int v) (map Int64.of_int int);
          map (fun v -> Row.Int v) (oneofl [ Int64.min_int; Int64.max_int; 0L; -1L ]);
          map (fun s -> Row.Text s) (string_size ~gen:printable (0 -- 40));
        ])
  in
  let case =
    Gen.(
      triple (list_size (0 -- 6) value) (pair (0 -- 16) (0 -- 16)) (0 -- 1000)
      |> map (fun (rest, junk, cut) -> (Row.Int 42L :: rest, junk, cut)))
  in
  Test.make ~name:"in-place column reads equal a reference decode" ~count:300
    (make
       ~print:(fun (row, (before, after), cut) ->
         Printf.sprintf "[%s] junk %d/%d cut %d"
           (String.concat "; " (List.map Row.to_string row))
           before after cut)
       case)
    (fun (row, (before, after), cut) ->
      let columns =
        List.mapi
          (fun i v ->
            {
              Schema.name = Printf.sprintf "c%d" i;
              ctype = (match v with Row.Int _ -> Schema.Int | Row.Text _ -> Schema.Text);
            })
          row
      in
      let table =
        {
          Schema.id = 1;
          name = "r";
          kind = Schema.Btree_table;
          root = Rw_storage.Page_id.of_int 2;
          columns;
          indexes = [];
        }
      in
      let key, payload = Row.encode table row in
      let reference = ref_decode table ~key ~payload in
      let span payload =
        let len = String.length payload in
        let b = Bytes.make (before + len + after) '\xff' in
        Bytes.blit_string payload 0 b before len;
        (b, len)
      in
      let raises f = match f () with exception Row.Type_error _ -> true | _ -> false in
      (* End of column i's field in the payload: fields 1..i, encoded. *)
      let field_end i =
        List.fold_left
          (fun acc v ->
            acc + match v with Row.Int _ -> 8 | Row.Text s -> 2 + String.length s)
          0
          (List.filteri (fun j _ -> j >= 1 && j <= i) row)
      in
      let n = List.length row in
      let whole, len = span payload in
      let cut_len = if len = 0 then 0 else cut mod len in
      let short, _ = span (String.sub payload 0 cut_len) in
      reference = row
      && Row.decode table ~key ~payload = reference
      && Row.read table ~key whole ~pos:before ~len = reference
      && (len = 0 || raises (fun () -> Row.read table ~key short ~pos:before ~len:cut_len))
      && List.for_all
           (fun i ->
             let read b ~len () = Row.int_at table b ~pos:before ~len i in
             let whole_ok =
               match List.nth_opt reference i with
               | Some (Row.Int v) when i > 0 -> read whole ~len () = Int64.to_int v
               | _ -> raises (read whole ~len)
             in
             let short_ok =
               if i = 0 || i >= n then raises (read short ~len:cut_len)
               else if field_end i > cut_len then raises (read short ~len:cut_len)
               else
                 whole_ok
                 && (raises (read whole ~len) || read short ~len:cut_len () = read whole ~len ())
             in
             whole_ok && short_ok)
           (List.init (n + 1) Fun.id))

(* --- database DML --- *)

let seed ?(n = 20) db =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"acct" ~columns:cols ());
      for i = 1 to n do
        Database.insert db txn ~table:"acct"
          [ Row.Int (Int64.of_int i); Row.Int (Int64.of_int (i * 100)); Row.Text "init" ]
      done)

let test_dml_roundtrip () =
  let db = mk_db () in
  seed db;
  check_int "count" 20 (Database.row_count db ~table:"acct");
  check "get" true
    (Database.get db ~table:"acct" ~key:5L = Some [ Row.Int 5L; Row.Int 500L; Row.Text "init" ]);
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"acct" [ Row.Int 5L; Row.Int 999L; Row.Text "updated" ];
      Database.delete db txn ~table:"acct" ~key:6L);
  check "updated" true
    (Database.get db ~table:"acct" ~key:5L = Some [ Row.Int 5L; Row.Int 999L; Row.Text "updated" ]);
  check "deleted" true (Database.get db ~table:"acct" ~key:6L = None);
  let sum = ref 0L in
  Database.range db ~table:"acct" ~lo:1L ~hi:10L ~f:(fun row ->
      match row with [ _; Row.Int v; _ ] -> sum := Int64.add !sum v | _ -> ());
  check "range aggregates" true (!sum > 0L)

let test_rollback_via_with_txn () =
  let db = mk_db () in
  seed db;
  (try
     Database.with_txn db (fun txn ->
         Database.insert db txn ~table:"acct" [ Row.Int 100L; Row.Int 1L; Row.Text "x" ];
         failwith "abort!")
   with Failure _ -> ());
  check "rolled back" true (Database.get db ~table:"acct" ~key:100L = None);
  check_int "still 20" 20 (Database.row_count db ~table:"acct")

let test_heap_table_dml () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"h" ~columns:cols ~kind:Schema.Heap_table ());
      for i = 1 to 10 do
        Database.insert db txn ~table:"h"
          [ Row.Int (Int64.of_int i); Row.Int 0L; Row.Text "heaprow" ]
      done);
  check_int "heap count" 10 (Database.row_count db ~table:"h");
  check "heap get" true (Database.get db ~table:"h" ~key:7L <> None);
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"h" [ Row.Int 7L; Row.Int 42L; Row.Text "upd" ];
      Database.delete db txn ~table:"h" ~key:3L);
  check "heap updated" true
    (Database.get db ~table:"h" ~key:7L = Some [ Row.Int 7L; Row.Int 42L; Row.Text "upd" ]);
  check "heap deleted" true (Database.get db ~table:"h" ~key:3L = None)

(* --- snapshot equals recorded history (randomised) --- *)

let test_snapshot_matches_history () =
  let db = mk_db () in
  let clock = Database.clock db in
  let rng = Prng.create 99 in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"acct" ~columns:cols ()));
  let model = Hashtbl.create 64 in
  let snapshots = ref [] in
  for round = 1 to 40 do
    Sim_clock.advance_us clock 200_000.0;
    Database.with_txn db (fun txn ->
        for _ = 1 to 5 do
          let k = Prng.int rng 50 in
          let key = Int64.of_int k in
          if Hashtbl.mem model k then
            if Prng.int rng 2 = 1 then begin
              Database.delete db txn ~table:"acct" ~key;
              Hashtbl.remove model k
            end
            else begin
              let row = [ Row.Int key; Row.Int (Int64.of_int round); Row.Text "u" ] in
              Database.update db txn ~table:"acct" row;
              Hashtbl.replace model k row
            end
          else begin
            let row = [ Row.Int key; Row.Int (Int64.of_int round); Row.Text "i" ] in
            Database.insert db txn ~table:"acct" row;
            Hashtbl.replace model k row
          end
        done);
    if round mod 10 = 0 then
      snapshots := (Sim_clock.now_us clock, Hashtbl.copy model) :: !snapshots
  done;
  (* Each recorded moment must be reproducible via an as-of snapshot. *)
  List.iteri
    (fun i (wall_us, expected) ->
      let snap =
        Database.create_as_of_snapshot db ~name:(Printf.sprintf "s%d" i) ~wall_us
      in
      check_int
        (Printf.sprintf "row count as of snapshot %d" i)
        (Hashtbl.length expected)
        (Database.row_count snap ~table:"acct");
      Hashtbl.iter
        (fun k row ->
          if Database.get snap ~table:"acct" ~key:(Int64.of_int k) <> Some row then
            Alcotest.failf "snapshot %d: key %d mismatch" i k)
        expected)
    !snapshots

(* --- backup / restore baseline --- *)

let test_backup_restore_as_of () =
  let db = mk_db () in
  let clock = Database.clock db in
  seed db ~n:30;
  let backup = Backup.take db in
  check "backup has pages" true (Backup.size_bytes backup > 0);
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"acct" [ Row.Int 1L; Row.Int 111L; Row.Text "after-backup" ]);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_mid = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn -> Database.delete db txn ~table:"acct" ~key:2L);
  (* Restore to t_mid: must contain the update but not the delete. *)
  let restored = Backup.restore_as_of backup ~from:db ~wall_us:t_mid in
  check "restored read-only" true (Database.is_read_only restored);
  check "update replayed" true
    (Database.get restored ~table:"acct" ~key:1L = Some [ Row.Int 1L; Row.Int 111L; Row.Text "after-backup" ]);
  check "later delete not replayed" true (Database.get restored ~table:"acct" ~key:2L <> None);
  check_int "full row count" 30 (Database.row_count restored ~table:"acct");
  (* Restoring before the backup is rejected. *)
  (try
     ignore (Backup.restore_as_of backup ~from:db ~wall_us:0.0);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ())

let test_restore_cost_independent_of_point () =
  let db = mk_db () in
  let clock = Database.clock db in
  seed db ~n:50;
  let backup = Backup.take db in
  Sim_clock.advance_us clock 1_000_000.0;
  let t1 = Sim_clock.now_us clock in
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"acct" [ Row.Int 1L; Row.Int 1L; Row.Text "x" ]);
  Sim_clock.advance_us clock 1_000_000.0;
  let t2 = Sim_clock.now_us clock in
  let c0 = Sim_clock.now_us clock in
  ignore (Backup.restore_as_of backup ~from:db ~wall_us:t1);
  let cost1 = Sim_clock.now_us clock -. c0 in
  let c1 = Sim_clock.now_us clock in
  ignore (Backup.restore_as_of backup ~from:db ~wall_us:t2);
  let cost2 = Sim_clock.now_us clock -. c1 in
  (* Within 50%: both dominated by the full copy. *)
  check "restore cost roughly flat" true (cost2 < cost1 *. 1.5 +. 1.0)

let test_read_only_guards () =
  let db = mk_db () in
  let clock = Database.clock db in
  seed db;
  Sim_clock.advance_us clock 1_000_000.0;
  let t = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn -> Database.delete db txn ~table:"acct" ~key:1L);
  let snap = Database.create_as_of_snapshot db ~name:"ro" ~wall_us:t in
  let rejected f = match f () with exception Database.Read_only _ -> true | _ -> false in
  check "begin_txn rejected" true (rejected (fun () -> Database.begin_txn snap));
  check "snapshot-of-snapshot rejected" true
    (rejected (fun () -> Database.create_as_of_snapshot snap ~name:"nested" ~wall_us:t));
  check "crash of snapshot rejected" true (rejected (fun () -> Database.crash_and_reopen snap));
  (* Reads keep working. *)
  check "reads fine" true (Database.get snap ~table:"acct" ~key:1L <> None)

let test_crash_fuzz_with_fpi () =
  (* The crash-recovery path must also be correct when full-page-image
     records are interleaved in transaction chains. *)
  let clock = Sim_clock.create () in
  let db = ref (Database.create ~name:"fpi" ~clock ~media:Media.ram ~fpi:(Rw_access.Access_ctx.Every_mods 5) ()) in
  Database.with_txn !db (fun txn ->
      ignore (Database.create_table !db txn ~table:"acct" ~columns:cols ()));
  let rng = Prng.create 9 in
  let model = Hashtbl.create 64 in
  for _ = 1 to 8 do
    Database.with_txn !db (fun txn ->
        for _ = 1 to 25 do
          let k = Prng.int rng 60 in
          let key = Int64.of_int k in
          let row = [ Row.Int key; Row.Int (Int64.of_int (Prng.int rng 1000)); Row.Text "f" ] in
          if Hashtbl.mem model k then begin
            Database.update !db txn ~table:"acct" row;
            Hashtbl.replace model k row
          end
          else begin
            Database.insert !db txn ~table:"acct" row;
            Hashtbl.replace model k row
          end
        done);
    db := Database.crash_and_reopen !db;
    Hashtbl.iter
      (fun k row ->
        if Database.get !db ~table:"acct" ~key:(Int64.of_int k) <> Some row then
          Alcotest.failf "key %d diverged after crash (fpi on)" k)
      model
  done

(* --- persistence --- *)

let tmpfile () = Filename.temp_file "rewinddb" ".img"

(* Full page images logged in [from, end of log). *)
let images_since db ~from =
  let log = Database.log db in
  let n = ref 0 in
  Rw_wal.Log_manager.iter_range_peek log ~from ~upto:(Rw_wal.Log_manager.end_lsn log)
    (fun _ pk _ ->
      if pk.Rw_wal.Log_record.p_kind = Rw_wal.Log_record.K_page_op Rw_wal.Log_record.K_full_image
      then incr n);
  !n

let test_save_load_roundtrip () =
  let module Access_ctx = Rw_access.Access_ctx in
  let db =
    Database.create ~name:"db" ~clock:(Sim_clock.create ()) ~media:Media.ram
      ~fpi:(Access_ctx.Every_mods 4) ()
  in
  seed db ~n:25;
  Database.set_retention db (Some 60_000_000.0);
  let before = ref [] in
  Database.scan db ~table:"acct" ~f:(fun row -> before := row :: !before);
  let path = tmpfile () in
  Database.save db ~path;
  (* Load into a completely fresh clock/engine. *)
  let clock2 = Sim_clock.create () in
  let db2 = Database.load ~clock:clock2 ~media:Media.ram ~path () in
  Alcotest.(check string) "name preserved" (Database.name db) (Database.name db2);
  let after = ref [] in
  Database.scan db2 ~table:"acct" ~f:(fun row -> after := row :: !after);
  check "all rows identical" true (!before = !after);
  check "retention preserved" true (Database.retention db2 = Some 60_000_000.0);
  check "clock resumed past save point" true
    (Sim_clock.now_us clock2 >= Sim_clock.now_us (Database.clock db));
  (* The loaded database is fully writable. *)
  Database.with_txn db2 (fun txn ->
      Database.insert db2 txn ~table:"acct" [ Row.Int 99L; Row.Int 1L; Row.Text "post-load" ]);
  check "writable after load" true (Database.get db2 ~table:"acct" ~key:99L <> None);
  (* The policy came along, and the loaded database logs images under it. *)
  check "fpi policy preserved" true (Access_ctx.fpi (Database.ctx db2) = Access_ctx.Every_mods 4);
  let from = Rw_wal.Log_manager.end_lsn (Database.log db2) in
  Database.with_txn db2 (fun txn ->
      for i = 100 to 111 do
        Database.insert db2 txn ~table:"acct" [ Row.Int (Int64.of_int i); Row.Int 1L; Row.Text "x" ]
      done);
  check "images logged every 4th modification after load" true (images_since db2 ~from >= 3);
  Sys.remove path

let test_save_load_preserves_history () =
  let db = mk_db () in
  let clock = Database.clock db in
  seed db ~n:10;
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn -> Database.delete db txn ~table:"acct" ~key:5L);
  let path = tmpfile () in
  Database.save db ~path;
  let clock2 = Sim_clock.create () in
  let db2 = Database.load ~clock:clock2 ~media:Media.ram ~path () in
  (* The log came along: the pre-save past is still reachable. *)
  let snap = Database.create_as_of_snapshot db2 ~name:"old" ~wall_us:t_past in
  check "pre-save history visible after load" true
    (Database.get snap ~table:"acct" ~key:5L <> None);
  check "present state correct" true (Database.get db2 ~table:"acct" ~key:5L = None);
  Sys.remove path

let test_load_rejects_garbage () =
  let path = tmpfile () in
  let oc = open_out path in
  output_string oc "not a database image";
  close_out oc;
  (match Database.load ~clock:(Sim_clock.create ()) ~media:Media.ram ~path () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on garbage");
  Sys.remove path

let test_loaded_db_attaches_to_engine () =
  let db = mk_db () in
  seed db ~n:5;
  let path = tmpfile () in
  Database.save db ~path;
  let eng = Engine.create ~media:Media.ram () in
  let db2 = Database.load ~clock:(Engine.clock eng) ~media:Media.ram ~path () in
  ignore (Engine.attach_database eng db2);
  check "registered" true (Engine.find_database eng "db" <> None);
  Sys.remove path

(* --- engine registry --- *)

let test_engine_registry () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng "prod" in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      Database.insert db txn ~table:"t" [ Row.Int 1L; Row.Int 1L; Row.Text "x" ]);
  check "find" true (Engine.find_database eng "prod" <> None);
  (try
     ignore (Engine.create_database eng "prod");
     Alcotest.fail "expected Database_exists"
   with Engine.Database_exists _ -> ());
  Sim_clock.advance_us (Engine.clock eng) 1_000_000.0;
  let t = Engine.now_us eng in
  Sim_clock.advance_us (Engine.clock eng) 1_000_000.0;
  Database.with_txn db (fun txn -> Database.delete db txn ~table:"t" ~key:1L);
  let snap = Engine.create_snapshot eng ~of_:"prod" ~name:"prod_asof" ~wall_us:t in
  check "snapshot registered" true (Engine.find_database eng "prod_asof" <> None);
  check "snapshot sees deleted row" true (Database.get snap ~table:"t" ~key:1L <> None);
  Engine.drop_database eng "prod_asof";
  check "dropped" true (Engine.find_database eng "prod_asof" = None);
  (try
     Engine.drop_database eng "nope";
     Alcotest.fail "expected No_such_database"
   with Engine.No_such_database _ -> ())

let () =
  Alcotest.run "engine"
    [
      ( "rows",
        [
          Alcotest.test_case "roundtrip" `Quick test_row_roundtrip;
          Alcotest.test_case "type errors" `Quick test_row_type_errors;
          QCheck_alcotest.to_alcotest row_reader_test;
        ] );
      ( "dml",
        [
          Alcotest.test_case "crud" `Quick test_dml_roundtrip;
          Alcotest.test_case "rollback" `Quick test_rollback_via_with_txn;
          Alcotest.test_case "heap tables" `Quick test_heap_table_dml;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "match recorded history" `Quick test_snapshot_matches_history;
          Alcotest.test_case "read-only guards" `Quick test_read_only_guards;
        ] );
      ( "crash_fpi",
        [ Alcotest.test_case "crash fuzz with FPIs" `Quick test_crash_fuzz_with_fpi ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "history preserved" `Quick test_save_load_preserves_history;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage;
          Alcotest.test_case "attach to engine" `Quick test_loaded_db_attaches_to_engine;
        ] );
      ( "backup",
        [
          Alcotest.test_case "restore as of" `Quick test_backup_restore_as_of;
          Alcotest.test_case "flat restore cost" `Quick test_restore_cost_independent_of_point;
        ] );
      ("registry", [ Alcotest.test_case "engine registry" `Quick test_engine_registry ]);
    ]
