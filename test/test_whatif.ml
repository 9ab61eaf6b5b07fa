(* What-if selective undo: dependency-graph shape on a known history,
   the multi-seed byte-equality property campaign (selective replay vs
   the replay-from-scratch oracle), crash atomicity mid-selective-replay,
   refusals that leave the database untouched, durability of a completed
   repair, and the SQL REWIND TRANSACTION surface. *)

module Media = Rw_storage.Media
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Log_manager = Rw_wal.Log_manager
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema
module Executor = Rw_sql.Executor
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Soaks = Rw_experiments.Soaks
module Twin = Rw_experiments.Twin

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]

(* 600 B values: ~13 rows per 8 KiB leaf, so keys 20 apart land on
   different leaves and updates never split pages. *)
let value ~round ~key =
  let head = Printf.sprintf "r%03d-k%03d-" round key in
  head ^ String.make (600 - String.length head) 'x'

let build_base db =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for k = 0 to 39 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value ~round:0 ~key:k) ]
      done);
  ignore (Database.checkpoint db)

let apply_round db ~round keys =
  Database.with_txn db (fun txn ->
      List.iter
        (fun k ->
          Database.update db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value ~round ~key:k) ])
        keys)

(* The four-transaction history the direct tests share: T1 writes the
   leaves of keys 0 and 20, T2 depends on it through key 0's leaf, T3
   through key 20's leaf, T4 is independent on key 35's leaf. *)
let history = [ (1, [ 0; 20 ]); (2, [ 0 ]); (3, [ 20 ]); (4, [ 35 ]) ]

let build_history ?(skip = []) () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:256 "wf" in
  build_base db;
  List.iter
    (fun (round, keys) -> if not (List.mem round skip) then apply_round db ~round keys)
    history;
  (eng, db)

let dump db =
  let acc = ref [] in
  Database.scan db ~table:"t" ~f:(fun r -> acc := r :: !acc);
  List.sort compare !acc

(* The last [n] graph nodes are the history transactions, in order. *)
let history_node graph ~ordinal =
  let nodes = Dep_graph.nodes graph in
  List.nth nodes (List.length nodes - List.length history + ordinal - 1)

(* --- dependency graph shape on the known history --- *)

let test_graph_shape () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let t1 = history_node graph ~ordinal:1 in
  let t4 = history_node graph ~ordinal:4 in
  check "history txns are not structural" true (not t1.Log_manager.ts_structural);
  check_int "T1 wrote two pages" 2 (List.length t1.Log_manager.ts_writes);
  let closure_ids n =
    Dep_graph.closure graph n.Log_manager.ts_txn
    |> List.map (fun m -> Txn_id.to_int m.Log_manager.ts_txn)
    |> List.sort compare
  in
  let t1_id = Txn_id.to_int t1.Log_manager.ts_txn in
  check "T1's closure is {T1,T2,T3}" true
    (closure_ids t1 = [ t1_id; t1_id + 1; t1_id + 2 ]);
  check "T4 is fully independent" true (closure_ids t4 = [ Txn_id.to_int t4.Log_manager.ts_txn ]);
  check_int "T1 has two direct dependents" 2
    (List.length (Dep_graph.dependents graph t1.Log_manager.ts_txn));
  check_int "full-rewind scope covers the tail" 4
    (List.length (Dep_graph.successors graph t1.Log_manager.ts_txn));
  check "unknown txn has an empty closure" true (Dep_graph.closure graph (Txn_id.of_int 99999) = [])

(* --- repair equals the replay-from-scratch oracle; independents untouched --- *)

let test_repair_vs_oracle () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = (history_node graph ~ordinal:1).Log_manager.ts_txn in
  let stats =
    match
      Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
        ~wall_us:(Database.now_us db) ()
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "repair reported conflicts"
  in
  check_int "closure is victim + 2 dependents" 3 stats.Selective.closure_size;
  check_int "two replayed transactions" 2 stats.Selective.replayed_txns;
  check_int "only the two shared leaves rewound" 2 stats.Selective.pages_rewound;
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "repaired state equals replay-minus-victim oracle" true (dump db = dump odb);
  check "independent T4's write survived" true
    (Database.get db ~table:"t" ~key:35L = Some [ Row.Int 35L; Row.Text (value ~round:4 ~key:35) ])

(* --- the multi-seed byte-equality property campaign --- *)

let test_soak_campaign () =
  let live () = Metrics.gauge_value Probes.snapshots_live in
  let live0 = live () in
  let rows = Soaks.whatif_soak_campaign ~seeds:[ 11; 23; 47 ] ~quick:true () in
  check "every twin snapshot dropped" true (live () = live0);
  check_int "three scenarios at three seeds" 9 (List.length rows);
  List.iter
    (fun (r : Twin.row) ->
      let label p = Printf.sprintf "seed %d, %s: %s" r.Twin.seed r.Twin.label p in
      let replayed = Twin.count r "replay" in
      check (label "graph after crash and reopen equals the pre-crash one") true
        (Twin.check r "reopen");
      check (label "dependent set exactly the constructed one") true (Twin.check r "scope");
      check (label "what-if view agrees with oracle") true (Twin.check r "view");
      check (label "repair ran") true (Twin.check r "repaired");
      check (label "repaired rows equal oracle") true (Twin.check r "state");
      check (label "canonical pages equal oracle") true (Twin.check r "pages");
      check (label "pages were compared") true (Twin.count r "cmp_pages" > 0);
      check (label "pre-victim as-of survives repair") true (Twin.check r "asof");
      match r.Twin.label with
      | "independent" -> check_int (label "independent victim replays nothing") 0 replayed
      | "chain" ->
          check (label "chained victim drags the whole tail") true
            (replayed = Twin.count r "closure" - 1 && replayed > 0)
      | _ -> check (label "mixed replays some") true (replayed > 0))
    rows

(* --- crash mid-selective-replay: the repair is atomic --- *)

let test_crash_mid_replay () =
  let _eng, db = build_history () in
  let before = dump db in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = (history_node graph ~ordinal:1).Log_manager.ts_txn in
  (* Crash after the first page's diff is logged but before the repair
     transaction can commit: the repair must roll back like any other
     in-flight transaction. *)
  let crashed = ref false in
  (try
     ignore
       (Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
          ~wall_us:(Database.now_us db)
          ~on_progress:(fun i -> if i = 1 then raise Exit)
          ())
   with Exit -> crashed := true);
  check "crash hook fired on the second page" true !crashed;
  let db2 = Database.crash_and_reopen db in
  check "half-applied repair rolled back" true (dump db2 = before);
  (* The survivor can run the same repair to completion. *)
  let graph2 = Dep_graph.build ~log:(Database.log db2) in
  (match
     Selective.repair ~ctx:(Database.ctx db2) ~log:(Database.log db2) ~graph:graph2 ~victim
       ~wall_us:(Database.now_us db2) ()
   with
  | Ok s -> check_int "retry rewinds both pages" 2 s.Selective.pages_rewound
  | Error _ -> Alcotest.fail "retry reported conflicts");
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "post-crash retry equals the oracle" true (dump db2 = dump odb)

(* --- conflicts refuse, never partially apply --- *)

let test_structural_refused () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  (* The base-load transaction formats pages: structural, not removable. *)
  let base =
    List.find (fun n -> n.Log_manager.ts_structural) (Dep_graph.nodes graph)
  in
  let before = dump db in
  (match
     Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph
       ~victim:base.Log_manager.ts_txn ~wall_us:(Database.now_us db) ()
   with
  | Ok _ -> Alcotest.fail "expected a structural conflict"
  | Error cs ->
      check "conflict names the transaction" true
        (List.exists (fun c -> Page_id.equal c.Selective.page Page_id.nil) cs));
  check "refused repair changed nothing" true (dump db = before);
  Alcotest.check_raises "unknown victim raises" (Selective.Unknown_txn (Txn_id.of_int 424242))
    (fun () ->
      ignore
        (Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph
           ~victim:(Txn_id.of_int 424242) ~wall_us:(Database.now_us db) ()))

(* A victim whose row a later transaction updated cannot be removed:
   replaying that update over the victim-free page finds no row. *)
let test_built_upon_refused () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:256 "wf" in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  Database.with_txn db (fun txn ->
      Database.insert db txn ~table:"t" [ Row.Int 7L; Row.Text "victim" ]);
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 7L; Row.Text "built-upon" ]);
  let graph = Dep_graph.build ~log:(Database.log db) in
  let nodes = Dep_graph.nodes graph in
  let victim = (List.nth nodes (List.length nodes - 2)).Log_manager.ts_txn in
  let before = dump db in
  (match
     Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
       ~wall_us:(Database.now_us db) ()
   with
  | Ok _ -> Alcotest.fail "expected a replay conflict"
  | Error cs ->
      check "conflict names the missing row" true
        (List.exists (fun c -> c.Selective.reason = "replayed update finds no row under its key") cs));
  check "refused repair changed nothing" true (dump db = before);
  check "built-upon row untouched" true
    (Database.get db ~table:"t" ~key:7L = Some [ Row.Int 7L; Row.Text "built-upon" ])

(* A victim whose own inserts split leaves logged structural page
   operations: it cannot be removed selectively, and the refusal leaves
   the database as it was. *)
let test_split_victim_refused () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:256 "wf" in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  Database.with_txn db (fun txn ->
      for i = 1 to 2000 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (String.make 120 'x') ]
      done);
  let graph = Dep_graph.build ~log:(Database.log db) in
  let nodes = Dep_graph.nodes graph in
  let victim = List.nth nodes (List.length nodes - 1) in
  check "splitting victim is structural" true victim.Log_manager.ts_structural;
  let before = dump db in
  (match
     Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph
       ~victim:victim.Log_manager.ts_txn ~wall_us:(Database.now_us db) ()
   with
  | Ok _ -> Alcotest.fail "expected a structural conflict"
  | Error cs -> check "split reported as structural" true (cs <> []));
  check "refused repair changed nothing" true (dump db = before)

(* --- a completed in-place repair is durable --- *)

let test_repair_survives_crash () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = (history_node graph ~ordinal:1).Log_manager.ts_txn in
  (match
     Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
       ~wall_us:(Database.now_us db) ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "repair reported conflicts");
  let db = Database.crash_and_reopen db in
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "repair survives a crash" true (dump db = dump odb)

(* --- SQL surface: REWIND TRANSACTION t [AS view] --- *)

let run_ok session sql =
  match Executor.run session sql with
  | r -> r
  | exception Executor.Sql_error m -> Alcotest.fail ("sql error: " ^ m)

let test_sql_rewind () =
  let eng, db = build_history () in
  let session = Executor.create_session eng in
  ignore (run_ok session "USE wf");
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = Txn_id.to_int (history_node graph ~ordinal:1).Log_manager.ts_txn in
  (* First as a what-if view: the live database is untouched. *)
  let live = dump db in
  (match run_ok session (Printf.sprintf "REWIND TRANSACTION %d AS wv" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "view creation left the live database alone" true (dump db = live);
  let view = Option.get (Engine.find_database eng "wv") in
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "view rows equal the oracle" true (dump view = dump odb);
  (* Then in place. *)
  (match run_ok session (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "in-place rewind equals the oracle" true (dump db = dump odb);
  (* Bad victim ids are SQL errors, not exceptions. *)
  check "unknown victim is a sql error" true
    (match Executor.run session "REWIND TRANSACTION 424242" with
    | exception Executor.Sql_error _ -> true
    | _ -> false)

(* --- another session's open transaction blocks the rewind --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_inflight_conflict () =
  let eng, db = build_history () in
  let s1 = Executor.create_session eng in
  let s2 = Executor.create_session eng in
  ignore (run_ok s1 "USE wf");
  ignore (run_ok s2 "USE wf");
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = Txn_id.to_int (history_node graph ~ordinal:1).Log_manager.ts_txn in
  (* Session 2 opens a transaction and writes key 0's leaf — a page the
     rewind of T1 would unwind — without committing.  The rewind must
     refuse: rewinding would erase the open transaction's row, and
     nothing would ever replay it. *)
  ignore (run_ok s2 "BEGIN");
  check_int "held update applied" 1
    (match run_ok s2 "UPDATE t SET v = 'held' WHERE k = 0" with
    | Executor.Affected n -> n
    | _ -> -1);
  let live = dump db in
  (match Executor.run s1 (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | exception Executor.Sql_error m ->
      check "conflict names the in-flight transaction" true (contains m "in-flight")
  | _ -> Alcotest.fail "expected an in-flight conflict");
  check "refused rewind changed nothing" true (dump db = live);
  (* Once that transaction commits it is an ordinary committed outsider:
     the planner folds it into the removed set and the rewind goes
     through. *)
  ignore (run_ok s2 "COMMIT");
  (match run_ok s1 (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "committed late-comer's write survives the rewind" true
    (Database.get db ~table:"t" ~key:0L = Some [ Row.Int 0L; Row.Text "held" ])

let () =
  Alcotest.run "whatif"
    [
      ("graph", [ Alcotest.test_case "known-history shape" `Quick test_graph_shape ]);
      ( "selective",
        [
          Alcotest.test_case "repair vs oracle" `Quick test_repair_vs_oracle;
          Alcotest.test_case "crash mid-replay atomic" `Quick test_crash_mid_replay;
          Alcotest.test_case "conflicts refuse cleanly" `Quick test_structural_refused;
          Alcotest.test_case "built-upon victim refused" `Quick test_built_upon_refused;
          Alcotest.test_case "split victim refused" `Quick test_split_victim_refused;
          Alcotest.test_case "repair survives restart" `Quick test_repair_survives_crash;
          Alcotest.test_case "in-flight transaction blocks rewind" `Quick test_inflight_conflict;
        ] );
      ("campaign", [ Alcotest.test_case "three seeds, three scenarios" `Slow test_soak_campaign ]);
      ("sql", [ Alcotest.test_case "rewind transaction" `Quick test_sql_rewind ]);
    ]
