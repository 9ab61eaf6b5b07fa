(* Catalog tests: schema serialisation, table lifecycle, metadata stored as
   ordinary logged data, and the record of the last catalog walk: after
   every path that changes catalog rows it agrees with a fresh decode of
   the catalog B-tree, a lookup it answers while the walk's pages are
   resident and unchanged is charged nothing, and any other lookup is
   charged exactly a plain walk. *)

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
module Btree = Rw_access.Btree
module Io_stats = Rw_storage.Io_stats
module Schema = Rw_catalog.Schema
module System_tables = Rw_catalog.System_tables
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Engine = Rw_engine.Engine
module Replica = Rw_repl.Replica
module Shipper = Rw_repl.Shipper
module Channel = Rw_repl.Channel
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  clock : Sim_clock.t;
  disk : Disk.t;
  pool : Buffer_pool.t;
  txns : Txn_manager.t;
  ctx : Access_ctx.t;
  alloc : Alloc_map.t;
  cat : System_tables.t;
}

let mk_env ?(media = Media.ram) ?(capacity = 128) () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let pool =
    Buffer_pool.create ~capacity ~source:(Buffer_pool.of_disk disk)
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
  let cat = System_tables.open_ ctx in
  System_tables.init cat alloc txn;
  Txn_manager.commit txns txn ~wall_us:0.0;
  Txn_manager.finished txns txn;
  { clock; disk; pool; txns; ctx; alloc; cat }

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

(* The catalog decoded afresh from its B-tree rows, past every memo. *)
let fresh_decode ctx =
  let root = Page_id.of_int (Int64.to_int (Boot.get_exn ctx Boot.key_catalog_root)) in
  List.map (fun (_, payload) -> Schema.decode payload) (Btree.to_list ctx (Btree.of_root root))

let test_create_find_drop () =
  let env = mk_env () in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.cat env.alloc txn ~name:"events" ~kind:Schema.Btree_table
          ~columns:cols)
  in
  check_int "first user table id" 1 tab.Schema.id;
  (match System_tables.find env.cat "events" with
  | Some found -> check "found equals created" true (found = tab)
  | None -> Alcotest.fail "not found");
  check "find_by_id" true (System_tables.find_by_id env.cat tab.Schema.id = Some tab);
  with_txn env (fun txn -> System_tables.drop_table env.cat env.alloc txn "events");
  check "gone" true (System_tables.find env.cat "events" = None);
  check "root freed" false (Alloc_map.is_allocated env.ctx tab.Schema.root)

let test_duplicate_name_rejected () =
  let env = mk_env () in
  with_txn env (fun txn ->
      ignore
        (System_tables.create_table env.cat env.alloc txn ~name:"t" ~kind:Schema.Btree_table
           ~columns:cols));
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "duplicate" (System_tables.Table_exists "t") (fun () ->
      ignore
        (System_tables.create_table env.cat env.alloc txn ~name:"t" ~kind:Schema.Btree_table
           ~columns:cols));
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_drop_missing () =
  let env = mk_env () in
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "missing" (System_tables.No_such_table "ghost") (fun () ->
      System_tables.drop_table env.cat env.alloc txn "ghost");
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_list_tables_ordered () =
  let env = mk_env () in
  with_txn env (fun txn ->
      List.iter
        (fun n ->
          ignore
            (System_tables.create_table env.cat env.alloc txn ~name:n ~kind:Schema.Btree_table
               ~columns:cols))
        [ "charlie"; "alpha"; "bravo" ]);
  let names = List.map (fun (t : Schema.table) -> t.Schema.name) (System_tables.list_tables env.cat) in
  check "in id (creation) order" true (names = [ "charlie"; "alpha"; "bravo" ])

(* 300 tables: enough to split the catalog B-tree itself across leaves. *)
let numbered_catalog ?media ?capacity () =
  let env = mk_env ?media ?capacity () in
  with_txn env (fun txn ->
      for i = 1 to 300 do
        ignore
          (System_tables.create_table env.cat env.alloc txn
             ~name:(Printf.sprintf "table_%03d" i) ~kind:Schema.Btree_table ~columns:cols)
      done);
  env

let test_many_tables_split_catalog () =
  let env = numbered_catalog () in
  check_int "all listed" 300 (List.length (System_tables.list_tables env.cat));
  check "specific lookup" true (System_tables.find env.cat "table_250" <> None);
  (* One leaf changes: the memo decodes that leaf again and reuses the
     other leaves' descriptors as they are. *)
  let root = Page_id.of_int (Int64.to_int (Boot.get_exn env.ctx Boot.key_catalog_root)) in
  check "catalog spans several leaves" true (Btree.height env.ctx (Btree.of_root root) > 1);
  let before = System_tables.list_tables env.cat in
  check "warm equals fresh" true (before = fresh_decode env.ctx);
  with_txn env (fun txn -> System_tables.drop_table env.cat env.alloc txn "table_300");
  let after = System_tables.list_tables env.cat in
  check "after the change equals fresh" true (after = fresh_decode env.ctx);
  check "table_300 gone" true (System_tables.find env.cat "table_300" = None);
  check "first leaf reused" true (List.hd after == List.hd before);
  check "changed leaf decoded again" true
    (List.nth after 298 = List.nth before 298 && List.nth after 298 != List.nth before 298)

let test_heap_table_kind () =
  let env = mk_env () in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.cat env.alloc txn ~name:"hp" ~kind:Schema.Heap_table
          ~columns:cols)
  in
  check "heap kind persisted" true
    ((Option.get (System_tables.find env.cat "hp")).Schema.kind = Schema.Heap_table);
  with_txn env (fun txn -> System_tables.drop_table env.cat env.alloc txn "hp");
  check "heap pages freed" false (Alloc_map.is_allocated env.ctx tab.Schema.root)

(* --- the decoded-schema memo --- *)

(* [list_tables] and [find] through the handle's memo equal a fresh
   decode, and every name in [absent] is unknown. *)
let agrees ?(absent = []) what db =
  let fresh = fresh_decode (Database.ctx db) in
  check (what ^ ": list_tables") true (Database.tables db = fresh);
  List.iter
    (fun (tab : Schema.table) ->
      check (what ^ ": find " ^ tab.Schema.name) true
        (Database.table db tab.Schema.name = Some tab))
    fresh;
  List.iter (fun name -> check (what ^ ": no " ^ name) true (Database.table db name = None)) absent

let mk_db () = Database.create ~name:"memo" ~clock:(Sim_clock.create ()) ~media:Media.ram ()

let create db table =
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table ~columns:cols ()))

let fill db table n =
  Database.with_txn db (fun txn ->
      for i = 1 to n do
        Database.insert db txn ~table
          [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "v%d" i) ]
      done)

let indexes db table = (Option.get (Database.table db table)).Schema.indexes

let test_memo_ddl () =
  let db = mk_db () in
  agrees "empty" db;
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"a" ~columns:cols ());
      ignore (Database.create_table db txn ~table:"b" ~columns:cols ()));
  agrees "created" db;
  fill db "b" 50;
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"b" ~name:"ib" ~column:"body" ()));
  agrees "index created" db;
  check_int "index listed" 1 (List.length (indexes db "b"));
  Database.with_txn db (fun txn -> Database.drop_index db txn ~table:"b" ~name:"ib");
  agrees "index dropped" db;
  check_int "index gone" 0 (List.length (indexes db "b"));
  Database.with_txn db (fun txn -> Database.drop_table db txn "a");
  agrees ~absent:[ "a" ] "table dropped" db

let test_memo_rollback () =
  let db = mk_db () in
  create db "a";
  agrees "committed" db;
  let txn = Database.begin_txn db in
  ignore (Database.create_table db txn ~table:"c" ~columns:cols ());
  Database.drop_table db txn "a";
  agrees ~absent:[ "a" ] "inside the ddl transaction" db;
  Database.rollback db txn;
  agrees ~absent:[ "c" ] "rolled back" db;
  check "a restored" true (Database.table db "a" <> None)

let test_memo_crash_restart () =
  List.iter
    (fun instant ->
      let what = if instant then "instant" else "full" in
      let db = mk_db () in
      create db "a";
      fill db "a" 40;
      agrees "before the crash" db;
      (* A DDL transaction in flight, durably logged but uncommitted. *)
      let txn = Database.begin_txn db in
      ignore (Database.create_table db txn ~table:"loser" ~columns:cols ());
      ignore (Database.create_index db txn ~table:"a" ~name:"ia" ~column:"body" ());
      agrees "in flight" db;
      Log_manager.flush_all (Database.log db);
      let db = Database.crash_and_reopen ~instant db in
      agrees ~absent:[ "loser" ] (what ^ " restart") db;
      check_int (what ^ ": loser's index undone") 0 (List.length (indexes db "a"));
      Database.recovery_drain_all db;
      agrees ~absent:[ "loser" ] (what ^ " restart, drained") db;
      create db "after";
      agrees ~absent:[ "loser" ] (what ^ " restart, new ddl") db)
    [ true; false ]

(* REWIND TRANSACTION over DDL transactions: whether the repair runs or is
   refused, the memo still agrees. *)
let test_memo_rewind () =
  let db = mk_db () in
  let committed f =
    let txn = Database.begin_txn db in
    f txn;
    Database.commit db txn;
    Txn_manager.txn_id txn
  in
  create db "a";
  fill db "a" 30;
  Database.with_txn db (fun txn ->
      ignore (Database.create_index db txn ~table:"a" ~name:"ia" ~column:"body" ()));
  let drop_ix = committed (fun txn -> Database.drop_index db txn ~table:"a" ~name:"ia") in
  let create_b =
    committed (fun txn -> ignore (Database.create_table db txn ~table:"b" ~columns:cols ()))
  in
  agrees "before the rewinds" db;
  let rewind victim =
    Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db)
      ~graph:(Dep_graph.build ~log:(Database.log db))
      ~victim ~wall_us:(Database.now_us db) ()
  in
  (match rewind drop_ix with
  | Ok _ -> check_int "rewound index drop: index back" 1 (List.length (indexes db "a"))
  | Error _ -> check_int "refused index drop: no index" 0 (List.length (indexes db "a")));
  agrees "after rewinding the index drop" db;
  (match rewind create_b with
  | Ok _ -> check "rewound create: b gone" true (Database.table db "b" = None)
  | Error _ -> check "refused create: b kept" true (Database.table db "b" <> None));
  agrees "after rewinding the create" db;
  (* A DDL transaction that only rewrites a descriptor row is repaired: the
     rewind logs a row update on the catalog leaf the memo holds. *)
  let env = mk_env () in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.cat env.alloc txn ~name:"t" ~kind:Schema.Btree_table
          ~columns:cols)
  in
  let renamed =
    { tab with Schema.columns = [ List.hd cols; { Schema.name = "note"; ctype = Schema.Text } ] }
  in
  let victim =
    with_txn env (fun txn ->
        System_tables.update_table env.cat env.alloc txn renamed;
        Txn_manager.txn_id txn)
  in
  check "renamed" true (System_tables.find env.cat "t" = Some renamed);
  let log = Access_ctx.log env.ctx in
  (match
     Selective.repair ~ctx:env.ctx ~log ~graph:(Dep_graph.build ~log) ~victim ~wall_us:0.0 ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "descriptor-only rewind refused");
  check "rename rewound" true (System_tables.find env.cat "t" = Some tab);
  check "rewound catalog equals fresh" true
    (System_tables.list_tables env.cat = fresh_decode env.ctx)

let test_memo_replica () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng "prim" in
  create db "a";
  fill db "a" 20;
  ignore (Database.checkpoint db);
  let replica = Replica.of_primary ~name:"r" db in
  let rdb = Replica.db replica in
  agrees "replica at the start" rdb;
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"b" ~columns:cols ());
      ignore (Database.create_index db txn ~table:"a" ~name:"ia" ~column:"body" ());
      Database.drop_table db txn "a");
  create db "c";
  let sh =
    Shipper.attach ~primary:db ~replica ~channel:(Channel.create ~clock:(Engine.clock eng) ()) ()
  in
  Shipper.catch_up sh;
  agrees ~absent:[ "a" ] "replica after catch-up" rdb;
  check "replica lists the primary's tables" true (Database.tables rdb = Database.tables db);
  Shipper.detach sh

(* A crash recycles LSNs: after it, an update brings the catalog leaf back
   to the very LSN the memo stamped, holding another descriptor.  Only the
   log's invalidation epoch tells the two apart. *)
let test_memo_recycled_lsn () =
  let env = mk_env () in
  let root = Page_id.of_int (Int64.to_int (Boot.get_exn env.ctx Boot.key_catalog_root)) in
  let leaf_lsn () = Access_ctx.read env.ctx root Page.lsn in
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.cat env.alloc txn ~name:"t" ~kind:Schema.Btree_table
          ~columns:cols)
  in
  Buffer_pool.flush_all env.pool;
  Log_manager.flush_all (Access_ctx.log env.ctx);
  (* Rename the second column in a transaction that never commits; the
     update reads no descriptor through the memo. *)
  let rename column =
    let txn = Txn_manager.begin_txn env.txns in
    let columns = [ List.hd cols; { Schema.name = column; ctype = Schema.Text } ] in
    System_tables.update_table env.cat env.alloc txn { tab with Schema.columns }
  in
  rename "lost";
  check "lost listed" true (System_tables.find env.cat "t" <> None);
  let stamped = leaf_lsn () in
  Buffer_pool.drop_all env.pool;
  Log_manager.crash (Access_ctx.log env.ctx);
  rename "kept";
  check "the leaf LSN was recycled" true (Rw_storage.Lsn.equal (leaf_lsn ()) stamped);
  check "the memo sees the new descriptor" true
    (match System_tables.find env.cat "t" with
    | Some t -> (List.nth t.Schema.columns 1).Schema.name = "kept"
    | None -> false);
  check "equals fresh" true (System_tables.list_tables env.cat = fresh_decode env.ctx)

(* [find] answers a repeated name from the walk it last read it from and
   from no other: on one handle, a name looked up just before the DDL or
   the crash that changes its answer gets the new answer. *)
let test_memo_repeated_name () =
  let db = mk_db () in
  check "unknown before creation" true (Database.table db "t" = None);
  check "still unknown" true (Database.table db "t" = None);
  create db "t";
  let first = Option.get (Database.table db "t") in
  check "created" true (Database.table db "t" = Some first);
  Database.with_txn db (fun txn -> Database.drop_table db txn "t");
  check "dropped" true (Database.table db "t" = None);
  create db "t";
  let second = Option.get (Database.table db "t") in
  check "re-created under a new id" true (second.Schema.id <> first.Schema.id);
  check "re-created, again" true (Database.table db "t" = Some second);
  agrees "re-created" db;
  (* A drop in flight at a crash: the loser is undone on restart. *)
  let txn = Database.begin_txn db in
  Database.drop_table db txn "t";
  check "dropped in flight" true (Database.table db "t" = None);
  Log_manager.flush_all (Database.log db);
  let db = Database.crash_and_reopen db in
  check "back after the restart" true (Database.table db "t" = Some second);
  agrees "after the restart" db;
  (* The same on one System_tables handle across a crash of its log. *)
  let env = mk_env () in
  check "env: unknown" true (System_tables.find env.cat "u" = None);
  Buffer_pool.flush_all env.pool;
  Log_manager.flush_all (Access_ctx.log env.ctx);
  let tab =
    with_txn env (fun txn ->
        System_tables.create_table env.cat env.alloc txn ~name:"u" ~kind:Schema.Btree_table
          ~columns:cols)
  in
  check "env: created" true (System_tables.find env.cat "u" = Some tab);
  Buffer_pool.drop_all env.pool;
  Log_manager.crash (Access_ctx.log env.ctx);
  check "env: the unflushed create is gone" true (System_tables.find env.cat "u" = None);
  check "env: equals fresh" true (System_tables.list_tables env.cat = fresh_decode env.ctx)

(* What a lookup advances: the simulated clock, the pool's hit and miss
   counts and the disk's I/O counters. *)
let charge env f =
  let us = Sim_clock.now_us env.clock in
  let hits = Buffer_pool.hits env.pool and misses = Buffer_pool.misses env.pool in
  let io = Io_stats.copy (Disk.stats env.disk) in
  f ();
  ( Sim_clock.now_us env.clock -. us,
    Buffer_pool.hits env.pool - hits,
    Buffer_pool.misses env.pool - misses,
    Io_stats.diff (Disk.stats env.disk) io )

let lookup cat () = check "found" true (System_tables.find cat "table_250" <> None)

(* The reference: a plain walk of the catalog B-tree, decoding every row. *)
let plain_walk env () = ignore (fresh_decode env.ctx)

let cold_pool env =
  Buffer_pool.flush_all env.pool;
  Buffer_pool.drop_all env.pool

(* A lookup through a cold memo, or through a warm one over a cold pool,
   advances the simulated clock, the pool's hit and miss counts and the
   disk's I/O counters by exactly what a plain walk of the catalog B-tree
   does.  Through a warm memo over a warm pool it advances none of them. *)
let test_memo_same_charges () =
  let env = numbered_catalog ~media:Media.ssd () in
  let charge = charge env and walk = plain_walk env and cold_pool () = cold_pool env in
  let warm = System_tables.open_ env.ctx in
  ignore (System_tables.list_tables warm);
  let ((us, hits, _, _) as plain) = charge walk in
  check "pool warm: a lookup is charged" true (us > 0.0 && hits > 0);
  check "pool warm: cold memo, plain walk's charge" true
    (charge (lookup (System_tables.open_ env.ctx)) = plain);
  let us, hits, misses, io = charge (lookup warm) in
  check "pool warm: warm memo, charged nothing" true
    (us = 0.0 && hits = 0 && misses = 0 && io = Io_stats.create ());
  cold_pool ();
  let ((us, _, misses, io) as plain) = charge walk in
  check "pool cold: a lookup reads the disk" true
    (us > 0.0 && misses > 0 && io.Io_stats.random_reads > 0);
  cold_pool ();
  check "pool cold: cold memo, plain walk's charge" true
    (charge (lookup (System_tables.open_ env.ctx)) = plain);
  cold_pool ();
  check "pool cold: warm memo, plain walk's charge" true (charge (lookup warm) = plain)

(* Pool pressure evicts the catalog's pages: the next lookup through a warm
   memo reads them again and is charged exactly a plain walk over a cold
   pool, and the one after it is charged nothing again. *)
let test_memo_evicted () =
  let env = numbered_catalog ~media:Media.ssd ~capacity:24 () in
  let charge = charge env in
  let warm = System_tables.open_ env.ctx in
  let tables = System_tables.list_tables warm in
  let root = Page_id.of_int (Int64.to_int (Boot.get_exn env.ctx Boot.key_catalog_root)) in
  let leaves = ref [] in
  Btree.iter_leaves env.ctx (Btree.of_root root) ~leaf:(fun pid _ -> pid) ~f:(fun pid ->
      leaves := pid :: !leaves);
  Buffer_pool.flush_all env.pool;
  List.iter (fun (tab : Schema.table) -> Access_ctx.read env.ctx tab.Schema.root ignore) tables;
  check "a catalog leaf was evicted" true
    (List.exists (fun pid -> Buffer_pool.resident_lsn env.pool pid = None) !leaves);
  let walks = Rw_obs.Metrics.counter_value Rw_obs.Probes.catalog_walks in
  let evicted = charge (lookup warm) in
  check_int "the lookup walked" (walks + 1)
    (Rw_obs.Metrics.counter_value Rw_obs.Probes.catalog_walks);
  cold_pool env;
  check "evicted: plain cold walk's charge" true (evicted = charge (plain_walk env));
  ignore (System_tables.list_tables warm);
  check "resident again: charged nothing" true
    (charge (lookup warm) = (0.0, 0, 0, Io_stats.create ()))

(* Generated DDL histories: after every step the handle's [find] and
   [list_tables] equal a fresh decode of the catalog B-tree.  The steps
   cover each path that changes catalog rows or the pages under the
   record: DDL, rolled-back DDL, crashes with a DDL transaction in flight
   (instant and full restart), and pool pressure. *)
type ddl_step =
  | Create of int
  | Drop of int
  | Index of int
  | Unindex of int
  | Rolled_back of int
  | Crash of { instant : bool }
  | Evict

let step_name = function
  | Create i -> Printf.sprintf "create t%d" i
  | Drop i -> Printf.sprintf "drop t%d" i
  | Index i -> Printf.sprintf "index t%d" i
  | Unindex i -> Printf.sprintf "unindex t%d" i
  | Rolled_back i -> Printf.sprintf "rolled-back ddl on t%d" i
  | Crash { instant } -> if instant then "crash, instant restart" else "crash, full restart"
  | Evict -> "evict"

let ddl_history =
  let open QCheck in
  let step =
    Gen.(
      map2
        (fun k i ->
          match k with
          | 0 | 1 -> Create i
          | 2 -> Drop i
          | 3 -> Index i
          | 4 -> Unindex i
          | 5 -> Rolled_back i
          | 6 -> Crash { instant = i mod 2 = 0 }
          | _ -> Evict)
        (int_bound 7) (int_bound 3))
  in
  make
    ~print:(fun steps -> String.concat "; " (List.map step_name steps))
    ~shrink:Shrink.list
    Gen.(list_size (int_range 1 12) step)

let names = List.init 4 (Printf.sprintf "t%d")

(* The handle's answers, taken before the fresh decode reads any page,
   against that decode. *)
let consistent db =
  let listed = Database.tables db in
  let found = List.map (fun name -> (name, Database.table db name)) names in
  let fresh = fresh_decode (Database.ctx db) in
  listed = fresh
  && List.for_all
       (fun (name, tab) ->
         tab = List.find_opt (fun (t : Schema.table) -> t.Schema.name = name) fresh)
       found

let run_history steps =
  let db =
    Database.create ~name:"hist" ~clock:(Sim_clock.create ()) ~media:Media.ram ~pool_capacity:24 ()
  in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"filler" ~columns:cols ());
      for i = 1 to 400 do
        Database.insert db txn ~table:"filler" [ Row.Int (Int64.of_int i); Row.Text (String.make 200 'f') ]
      done);
  let exists db name = Database.table db name <> None in
  let indexed db name = exists db name && indexes db name <> [] in
  let ddl db txn i =
    let name = Printf.sprintf "t%d" i in
    if exists db name then Database.drop_table db txn name
    else ignore (Database.create_table db txn ~table:name ~columns:cols ())
  in
  let step db = function
    | Create i ->
        let name = Printf.sprintf "t%d" i in
        if not (exists db name) then create db name;
        db
    | Drop i ->
        let name = Printf.sprintf "t%d" i in
        if exists db name then Database.with_txn db (fun txn -> Database.drop_table db txn name);
        db
    | Index i ->
        let name = Printf.sprintf "t%d" i in
        if exists db name && not (indexed db name) then
          Database.with_txn db (fun txn ->
              ignore (Database.create_index db txn ~table:name ~name:"ix" ~column:"body" ()));
        db
    | Unindex i ->
        let name = Printf.sprintf "t%d" i in
        if indexed db name then
          Database.with_txn db (fun txn -> Database.drop_index db txn ~table:name ~name:"ix");
        db
    | Rolled_back i ->
        let txn = Database.begin_txn db in
        ddl db txn i;
        ddl db txn ((i + 1) mod 4);
        Database.rollback db txn;
        db
    | Crash { instant } ->
        let txn = Database.begin_txn db in
        ddl db txn 0;
        Log_manager.flush_all (Database.log db);
        Database.crash_and_reopen ~instant db
    | Evict ->
        Database.scan db ~table:"filler" ~f:ignore;
        db
  in
  consistent db
  && snd
       (List.fold_left
          (fun (db, ok) s ->
            if not ok then (db, ok)
            else
              let db = step db s in
              (db, consistent db))
          (db, true) steps)

let ddl_history_test =
  QCheck.Test.make ~name:"find and list_tables equal a fresh decode" ~count:100 ddl_history
    run_history

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
      ( "memo",
        [
          Alcotest.test_case "create/drop table and index" `Quick test_memo_ddl;
          Alcotest.test_case "rolled-back ddl" `Quick test_memo_rollback;
          Alcotest.test_case "ddl in flight at a crash" `Quick test_memo_crash_restart;
          Alcotest.test_case "rewind over ddl" `Quick test_memo_rewind;
          Alcotest.test_case "replica catch-up across ddl" `Quick test_memo_replica;
          Alcotest.test_case "lsn recycled by a crash" `Quick test_memo_recycled_lsn;
          Alcotest.test_case "repeated name" `Quick test_memo_repeated_name;
          Alcotest.test_case "same modeled charge" `Quick test_memo_same_charges;
          Alcotest.test_case "evicted leaf charged a cold walk" `Quick test_memo_evicted;
          QCheck_alcotest.to_alcotest ddl_history_test;
        ] );
    ]
