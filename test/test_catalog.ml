(* Catalog tests: schema serialisation, table lifecycle, metadata stored as
   ordinary logged data. *)

module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Disk = Rw_storage.Disk
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Lock_manager = Rw_txn.Lock_manager
module Txn_manager = Rw_txn.Txn_manager
module Access_ctx = Rw_access.Access_ctx
module Alloc_map = Rw_access.Alloc_map
module Boot = Rw_access.Boot
module Schema = Rw_catalog.Schema
module System_tables = Rw_catalog.System_tables

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = { txns : Txn_manager.t; ctx : Access_ctx.t; alloc : Alloc_map.t }

let mk_env () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let pool =
    Buffer_pool.create ~capacity:128 ~source:(Buffer_pool.of_disk disk)
      ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn)
      ()
  in
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let ctx = Access_ctx.create ~pool ~txns ~log ~clock () in
  let txn = Txn_manager.begin_txn txns in
  Boot.init ctx txn;
  Boot.set ctx txn Boot.key_next_page_id 2L;
  Alloc_map.init ctx txn;
  let alloc = Alloc_map.open_ ctx in
  System_tables.init ctx alloc txn;
  Txn_manager.commit txns txn ~wall_us:0.0;
  Txn_manager.finished txns txn;
  { txns; ctx; alloc }

let with_txn env f =
  let txn = Txn_manager.begin_txn env.txns in
  let v = f txn in
  Txn_manager.commit env.txns txn ~wall_us:0.0;
  Txn_manager.finished env.txns txn;
  v

let cols = [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "body"; ctype = Schema.Text } ]

(* --- schema codec --- *)

let test_schema_roundtrip () =
  let t =
    {
      Schema.id = 42;
      name = "orders";
      kind = Schema.Btree_table;
      root = Page_id.of_int 17;
      columns =
        [
          { Schema.name = "o_id"; ctype = Schema.Int };
          { Schema.name = "note"; ctype = Schema.Text };
          { Schema.name = "qty"; ctype = Schema.Int };
        ];
      indexes = [];
    }
  in
  check "roundtrip" true (Schema.decode (Schema.encode t) = t);
  let heap = { t with Schema.kind = Schema.Heap_table; columns = cols } in
  check "heap roundtrip" true (Schema.decode (Schema.encode heap) = heap)

let test_schema_validate () =
  let ok name columns = Schema.validate ~name ~columns = Ok () in
  check "valid" true (ok "orders" cols);
  check "empty name" false (ok "" cols);
  check "bad chars" false (ok "or der" cols);
  check "leading digit" false (ok "1orders" cols);
  check "no columns" false (ok "orders" []);
  check "text key" false
    (ok "orders" [ { Schema.name = "k"; ctype = Schema.Text } ]);
  check "duplicate columns" false
    (ok "orders" [ { Schema.name = "a"; ctype = Schema.Int }; { Schema.name = "a"; ctype = Schema.Int } ])

(* --- system tables --- *)

let test_create_find_drop () =
  let env = mk_env () in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.ctx env.alloc txn ~name:"events" ~kind:Schema.Btree_table
          ~columns:cols)
  in
  check_int "first user table id" 1 tab.Schema.id;
  (match System_tables.find env.ctx "events" with
  | Some found -> check "found equals created" true (found = tab)
  | None -> Alcotest.fail "not found");
  check "find_by_id" true (System_tables.find_by_id env.ctx tab.Schema.id = Some tab);
  with_txn env (fun txn -> System_tables.drop_table env.ctx env.alloc txn "events");
  check "gone" true (System_tables.find env.ctx "events" = None);
  check "root freed" false (Alloc_map.is_allocated env.ctx tab.Schema.root)

let test_duplicate_name_rejected () =
  let env = mk_env () in
  with_txn env (fun txn ->
      ignore
        (System_tables.create_table env.ctx env.alloc txn ~name:"t" ~kind:Schema.Btree_table
           ~columns:cols));
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "duplicate" (System_tables.Table_exists "t") (fun () ->
      ignore
        (System_tables.create_table env.ctx env.alloc txn ~name:"t" ~kind:Schema.Btree_table
           ~columns:cols));
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_drop_missing () =
  let env = mk_env () in
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "missing" (System_tables.No_such_table "ghost") (fun () ->
      System_tables.drop_table env.ctx env.alloc txn "ghost");
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_list_tables_ordered () =
  let env = mk_env () in
  with_txn env (fun txn ->
      List.iter
        (fun n ->
          ignore
            (System_tables.create_table env.ctx env.alloc txn ~name:n ~kind:Schema.Btree_table
               ~columns:cols))
        [ "charlie"; "alpha"; "bravo" ]);
  let names = List.map (fun (t : Schema.table) -> t.Schema.name) (System_tables.list_tables env.ctx) in
  check "in id (creation) order" true (names = [ "charlie"; "alpha"; "bravo" ])

let test_many_tables_split_catalog () =
  let env = mk_env () in
  (* Force the catalog B-tree itself to split across pages. *)
  with_txn env (fun txn ->
      for i = 1 to 300 do
        ignore
          (System_tables.create_table env.ctx env.alloc txn
             ~name:(Printf.sprintf "table_%03d" i) ~kind:Schema.Btree_table ~columns:cols)
      done);
  check_int "all listed" 300 (List.length (System_tables.list_tables env.ctx));
  check "specific lookup" true (System_tables.find env.ctx "table_250" <> None)

let test_heap_table_kind () =
  let env = mk_env () in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.ctx env.alloc txn ~name:"hp" ~kind:Schema.Heap_table
          ~columns:cols)
  in
  check "heap kind persisted" true
    ((Option.get (System_tables.find env.ctx "hp")).Schema.kind = Schema.Heap_table);
  with_txn env (fun txn -> System_tables.drop_table env.ctx env.alloc txn "hp");
  check "heap pages freed" false (Alloc_map.is_allocated env.ctx tab.Schema.root)

let () =
  Alcotest.run "catalog"
    [
      ( "schema",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_schema_roundtrip;
          Alcotest.test_case "validation" `Quick test_schema_validate;
        ] );
      ( "system_tables",
        [
          Alcotest.test_case "create/find/drop" `Quick test_create_find_drop;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_name_rejected;
          Alcotest.test_case "drop missing" `Quick test_drop_missing;
          Alcotest.test_case "list order" `Quick test_list_tables_ordered;
          Alcotest.test_case "catalog splits" `Quick test_many_tables_split_catalog;
          Alcotest.test_case "heap tables" `Quick test_heap_table_kind;
        ] );
    ]
