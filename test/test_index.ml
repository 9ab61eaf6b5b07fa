(* Secondary index tests: backfill, DML maintenance, lookups (INT and TEXT,
   hash collisions included), crash recovery, as-of snapshots of index
   state, and the SQL planner path. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Prng = Rw_storage.Prng
module Schema = Rw_catalog.Schema
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Index = Rw_engine.Index
module Executor = Rw_sql.Executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [
    { Schema.name = "id"; ctype = Schema.Int };
    { Schema.name = "city"; ctype = Schema.Text };
    { Schema.name = "amount"; ctype = Schema.Int };
  ]

let cities = [| "oslo"; "lima"; "pune"; "kiel" |]

let mk_db ?(n = 40) () =
  let clock = Sim_clock.create () in
  let db = Database.create ~name:"ix" ~clock ~media:Media.ram () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"orders" ~columns:cols ());
      for i = 1 to n do
        Database.insert db txn ~table:"orders"
          [
            Row.Int (Int64.of_int i);
            Row.Text cities.(i mod Array.length cities);
            Row.Int (Int64.of_int (i * 10));
          ]
      done);
  db

let lookup_ids db column value =
  Database.lookup_by_index db ~table:"orders" ~column ~value
  |> List.map (fun row -> match row with Row.Int id :: _ -> Int64.to_int id | _ -> -1)
  |> List.sort compare

let scan_ids db column value =
  let acc = ref [] in
  Database.scan db ~table:"orders" ~f:(fun row ->
      let v = match column with "city" -> List.nth row 1 | _ -> List.nth row 2 in
      match row with
      | Row.Int id :: _ when Row.equal_value v value -> acc := Int64.to_int id :: !acc
      | _ -> ());
  List.sort compare !acc

let test_backfill_and_lookup () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  Array.iter
    (fun city ->
      let v = Row.Text city in
      check (Printf.sprintf "index agrees with scan for %s" city) true
        (lookup_ids db "city" v = scan_ids db "city" v))
    cities;
  check "no hits for unknown value" true (lookup_ids db "city" (Row.Text "nowhere") = []);
  check_int "entry count equals rows" 40
    (Index.entry_count (Database.ctx db)
       (List.hd (Option.get (Database.table db "orders")).Schema.indexes))

let test_maintenance_on_dml () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  Database.with_txn db (fun txn ->
      Database.insert db txn ~table:"orders" [ Row.Int 100L; Row.Text "oslo"; Row.Int 5L ];
      (* Move row 1 from lima to kiel. *)
      Database.update db txn ~table:"orders" [ Row.Int 1L; Row.Text "kiel"; Row.Int 10L ];
      Database.delete db txn ~table:"orders" ~key:2L);
  check "insert indexed" true (List.mem 100 (lookup_ids db "city" (Row.Text "oslo")));
  check "update moved posting" true (List.mem 1 (lookup_ids db "city" (Row.Text "kiel")));
  check "update removed old posting" false (List.mem 1 (lookup_ids db "city" (Row.Text "lima")));
  check "delete removed posting" false
    (List.mem 2 (lookup_ids db "city" (Row.Text (cities.(2 mod 4)))));
  Array.iter
    (fun city ->
      let v = Row.Text city in
      check "still agrees with scan" true (lookup_ids db "city" v = scan_ids db "city" v))
    cities

let test_int_index_and_duplicates () =
  let db = mk_db ~n:0 () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"amount" ()));
  (* 500 rows sharing one value exercises posting-bucket chaining. *)
  Database.with_txn db (fun txn ->
      for i = 1 to 500 do
        Database.insert db txn ~table:"orders"
          [ Row.Int (Int64.of_int i); Row.Text "x"; Row.Int 7L ]
      done);
  check_int "500 duplicates found" 500 (List.length (lookup_ids db "amount" (Row.Int 7L)));
  (* Delete half and re-check. *)
  Database.with_txn db (fun txn ->
      for i = 1 to 250 do
        Database.delete db txn ~table:"orders" ~key:(Int64.of_int i)
      done);
  check_int "250 left" 250 (List.length (lookup_ids db "amount" (Row.Int 7L)))

let test_rejections () =
  let db = mk_db () in
  let rejected f =
    match Database.with_txn db f with
    | exception Invalid_argument _ -> true
    | exception Rw_engine.Database.No_such_index _ -> true
    | _ -> false
  in
  check "key column rejected" true
    (rejected (fun txn -> ignore (Database.create_index db txn ~table:"orders" ~column:"id" ())));
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  check "duplicate name rejected" true
    (rejected (fun txn ->
         ignore (Database.create_index db txn ~table:"orders" ~column:"city" ())));
  Database.with_txn db (fun txn ->
      ignore
        (Database.create_table db txn ~table:"hp" ~columns:cols ~kind:Schema.Heap_table ()));
  check "heap table rejected" true
    (rejected (fun txn -> ignore (Database.create_index db txn ~table:"hp" ~column:"city" ())));
  check "unknown index on drop" true
    (rejected (fun txn -> Database.drop_index db txn ~table:"orders" ~name:"ghost"))

let test_drop_frees_pages () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  let ix = List.hd (Option.get (Database.table db "orders")).Schema.indexes in
  Database.with_txn db (fun txn -> Database.drop_index db txn ~table:"orders" ~name:ix.Schema.index_name);
  check "catalog updated" true
    ((Option.get (Database.table db "orders")).Schema.indexes = []);
  check "index pages freed" false
    (Rw_access.Alloc_map.is_allocated (Database.ctx db) ix.Schema.index_root);
  (* Dropping the whole table frees index pages too. *)
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  let ix2 = List.hd (Option.get (Database.table db "orders")).Schema.indexes in
  Database.with_txn db (fun txn -> Database.drop_table db txn "orders");
  check "index pages freed with table" false
    (Rw_access.Alloc_map.is_allocated (Database.ctx db) ix2.Schema.index_root)

let test_index_crash_recovery () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  Database.with_txn db (fun txn ->
      Database.insert db txn ~table:"orders" [ Row.Int 200L; Row.Text "oslo"; Row.Int 1L ]);
  let db = Database.crash_and_reopen db in
  check "index survives crash" true (List.mem 200 (lookup_ids db "city" (Row.Text "oslo")));
  Array.iter
    (fun city ->
      let v = Row.Text city in
      check "post-crash agreement" true (lookup_ids db "city" v = scan_ids db "city" v))
    cities

let test_index_time_travel () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ()));
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"orders" [ Row.Int 1L; Row.Text "kiel"; Row.Int 10L ]);
  let snap = Database.create_as_of_snapshot db ~name:"ixsnap" ~wall_us:t_past in
  (* The index in the snapshot reflects the OLD value: the posting pages
     themselves were rewound. *)
  check "snapshot index has old posting" true (List.mem 1 (lookup_ids snap "city" (Row.Text "lima")));
  check "snapshot index lacks new posting" false
    (List.mem 1 (lookup_ids snap "city" (Row.Text "kiel")));
  check "primary index has new posting" true (List.mem 1 (lookup_ids db "city" (Row.Text "kiel")))

let test_sql_index_path () =
  let eng = Rw_engine.Engine.create ~media:Media.ram () in
  let s = Executor.create_session eng in
  let run q = Executor.run s q in
  ignore (run "CREATE DATABASE d");
  ignore (run "CREATE TABLE events (id INT, tag TEXT, n INT)");
  for i = 1 to 60 do
    ignore
      (run
         (Printf.sprintf "INSERT INTO events VALUES (%d, 'tag%d', %d)" i (i mod 3) (i mod 7)))
  done;
  ignore (run "CREATE INDEX ix_tag ON events (tag)");
  ignore (run "CREATE INDEX ix_n ON events (n)");
  let rows q = match run q with Executor.Rows { rows; _ } -> rows | _ -> [] in
  check_int "indexed text lookup" 20 (List.length (rows "SELECT * FROM events WHERE tag = 'tag1'"));
  check_int "indexed int lookup + residual" 3
    (List.length (rows "SELECT * FROM events WHERE n = 3 AND id <= 20"));
  check_int "order+limit over index path" 2
    (List.length (rows "SELECT * FROM events WHERE tag = 'tag0' ORDER BY id DESC LIMIT 2"));
  ignore (run "DROP INDEX ix_tag ON events");
  check_int "same answer without index" 20
    (List.length (rows "SELECT * FROM events WHERE tag = 'tag1'"));
  match run "DROP INDEX ix_tag ON events" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected error dropping missing index"

(* Randomised agreement: arbitrary DML with an index on both a TEXT and an
   INT column must always agree with full scans. *)
let test_index_fuzz () =
  let db = mk_db ~n:0 () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"orders" ~column:"city" ());
      ignore (Database.create_index db txn ~table:"orders" ~column:"amount" ()));
  let rng = Prng.create 555 in
  let present = Hashtbl.create 64 in
  for _ = 1 to 400 do
    let k = Prng.int rng 80 in
    let key = Int64.of_int k in
    Database.with_txn db (fun txn ->
        if Hashtbl.mem present k then
          if Prng.int rng 2 = 1 then begin
            Database.delete db txn ~table:"orders" ~key;
            Hashtbl.remove present k
          end
          else
            Database.update db txn ~table:"orders"
              [
                Row.Int key;
                Row.Text cities.(Prng.int rng (Array.length cities));
                Row.Int (Int64.of_int (Prng.int rng 5));
              ]
        else begin
          Database.insert db txn ~table:"orders"
            [
              Row.Int key;
              Row.Text cities.(Prng.int rng (Array.length cities));
              Row.Int (Int64.of_int (Prng.int rng 5));
            ];
          Hashtbl.replace present k ()
        end)
  done;
  Array.iter
    (fun city ->
      let v = Row.Text city in
      check "city agreement" true (lookup_ids db "city" v = scan_ids db "city" v))
    cities;
  for n = 0 to 4 do
    let v = Row.Int (Int64.of_int n) in
    check "amount agreement" true (lookup_ids db "amount" v = scan_ids db "amount" v)
  done

let () =
  Alcotest.run "index"
    [
      ( "engine",
        [
          Alcotest.test_case "backfill + lookup" `Quick test_backfill_and_lookup;
          Alcotest.test_case "DML maintenance" `Quick test_maintenance_on_dml;
          Alcotest.test_case "duplicates / buckets" `Quick test_int_index_and_duplicates;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "drop frees pages" `Quick test_drop_frees_pages;
          Alcotest.test_case "crash recovery" `Quick test_index_crash_recovery;
          Alcotest.test_case "time travel" `Quick test_index_time_travel;
          Alcotest.test_case "randomised agreement" `Quick test_index_fuzz;
        ] );
      ("sql", [ Alcotest.test_case "planner path" `Quick test_sql_index_path ]);
    ]
