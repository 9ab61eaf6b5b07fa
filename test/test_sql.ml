(* SQL layer tests: lexer, parser, executor semantics, and the paper's
   full dropped-table recovery scenario in plain SQL. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Engine = Rw_engine.Engine
module Row = Rw_engine.Row
module Lexer = Rw_sql.Lexer
module Parser = Rw_sql.Parser
module Ast = Rw_sql.Ast
module Executor = Rw_sql.Executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_session () =
  let eng = Engine.create ~media:Media.ram () in
  (eng, Executor.create_session eng)

let rows_of = function
  | Executor.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let affected = function
  | Executor.Affected n -> n
  | _ -> Alcotest.fail "expected affected-count"

(* --- lexer --- *)

let test_lexer_basics () =
  let tokens = Lexer.tokenize "SELECT * FROM t WHERE a >= 10 AND b = 'x''y';" in
  check "token count" true (List.length tokens = 13);
  (match Lexer.tokenize "'abc'" with
  | [ Lexer.String_tok "abc" ] -> ()
  | _ -> Alcotest.fail "string literal");
  (match Lexer.tokenize "-- comment\n42" with
  | [ Lexer.Int_tok 42L ] -> ()
  | _ -> Alcotest.fail "comment skipped");
  (match Lexer.tokenize "3.25" with
  | [ Lexer.Float_tok 3.25 ] -> ()
  | _ -> Alcotest.fail "float");
  Alcotest.check_raises "bad char" (Lexer.Lex_error "unexpected character '@'") (fun () ->
      ignore (Lexer.tokenize "a @ b"));
  Alcotest.check_raises "unterminated" (Lexer.Lex_error "unterminated string literal")
    (fun () -> ignore (Lexer.tokenize "'abc"))

(* --- parser --- *)

let test_parse_create_snapshot () =
  match Parser.parse "CREATE DATABASE snap AS SNAPSHOT OF prod AS OF '12.5'" with
  | Ast.Create_snapshot { name = "snap"; of_ = "prod"; as_of = Ast.Absolute_s 12.5 } -> ()
  | _ -> Alcotest.fail "snapshot parse"

let test_parse_relative_time () =
  match Parser.parse "CREATE DATABASE s AS SNAPSHOT OF p AS OF -30" with
  | Ast.Create_snapshot { as_of = Ast.Relative_s 30.0; _ } -> ()
  | _ -> Alcotest.fail "relative time"

let test_parse_retention () =
  (match Parser.parse "ALTER DATABASE db SET UNDO_INTERVAL = 24 HOURS" with
  | Ast.Alter_retention { database = "db"; interval_s = Some s } ->
      check "24h in seconds" true (s = 86400.0)
  | _ -> Alcotest.fail "retention parse");
  match Parser.parse "ALTER DATABASE db SET UNDO_INTERVAL NONE" with
  | Ast.Alter_retention { interval_s = None; _ } -> ()
  | _ -> Alcotest.fail "retention none"

let test_parse_select_where () =
  match Parser.parse "SELECT a, b FROM db.t WHERE k BETWEEN 3 AND 7 AND b = 'z'" with
  | Ast.Select
      { proj = Ast.Columns [ "a"; "b" ]; from = { database = Some "db"; table = "t" }; where; _ }
    ->
      check_int "three conditions (between expands)" 3 (List.length where)
  | _ -> Alcotest.fail "select parse"

let test_parse_errors () =
  let bad s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> ()
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "SELECT";
  bad "CREATE TABLE t";
  bad "INSERT INTO t";
  bad "SELECT * FROM t WHERE";
  bad "FROB THE KNOB";
  bad "SELECT * FROM t extra"

let test_parse_script () =
  let stmts = Parser.parse_script "BEGIN; COMMIT;  ; ROLLBACK" in
  check_int "three statements" 3 (List.length stmts)

(* --- executor --- *)

let setup_shop () =
  let eng, s = mk_session () in
  ignore (Executor.run s "CREATE DATABASE shop");
  ignore (Executor.run s "USE shop");
  ignore (Executor.run s "CREATE TABLE items (id INT PRIMARY KEY, qty INT, name TEXT)");
  ignore
    (Executor.run s
       "INSERT INTO items VALUES (1, 10, 'apple'), (2, 20, 'pear'), (3, 30, 'fig')");
  (eng, s)

let test_crud_roundtrip () =
  let _, s = setup_shop () in
  let r = rows_of (Executor.run s "SELECT * FROM items WHERE id = 2") in
  check "select by key" true (r = [ [ Row.Int 2L; Row.Int 20L; Row.Text "pear" ] ]);
  check_int "update" 1 (affected (Executor.run s "UPDATE items SET qty = 99 WHERE id = 2"));
  let r = rows_of (Executor.run s "SELECT qty FROM items WHERE id = 2") in
  check "updated" true (r = [ [ Row.Int 99L ] ]);
  check_int "delete" 1 (affected (Executor.run s "DELETE FROM items WHERE id = 1"));
  let r = rows_of (Executor.run s "SELECT COUNT(*) FROM items") in
  check "count" true (r = [ [ Row.Int 2L ] ])

let test_where_variants () =
  let _, s = setup_shop () in
  let count q = List.length (rows_of (Executor.run s q)) in
  check_int "range" 2 (count "SELECT * FROM items WHERE id >= 2");
  check_int "between" 2 (count "SELECT * FROM items WHERE id BETWEEN 1 AND 2");
  check_int "ne on key" 2 (count "SELECT * FROM items WHERE id <> 2");
  check_int "non-key filter" 1 (count "SELECT * FROM items WHERE name = 'fig'");
  check_int "combined" 1 (count "SELECT * FROM items WHERE id >= 2 AND qty = 30");
  check_int "empty range" 0 (count "SELECT * FROM items WHERE id > 5 AND id < 3")

let test_explicit_transaction () =
  let _, s = setup_shop () in
  ignore (Executor.run s "BEGIN");
  ignore (Executor.run s "INSERT INTO items VALUES (4, 40, 'plum')");
  ignore (Executor.run s "ROLLBACK");
  check_int "rolled back" 0
    (List.length (rows_of (Executor.run s "SELECT * FROM items WHERE id = 4")));
  ignore (Executor.run s "BEGIN");
  ignore (Executor.run s "INSERT INTO items VALUES (4, 40, 'plum')");
  ignore (Executor.run s "COMMIT");
  check_int "committed" 1
    (List.length (rows_of (Executor.run s "SELECT * FROM items WHERE id = 4")))

let test_type_errors () =
  let _, s = setup_shop () in
  let bad q =
    match Executor.run s q with
    | exception Executor.Sql_error _ -> ()
    | _ -> Alcotest.failf "expected error for %S" q
  in
  bad "INSERT INTO items VALUES ('one', 10, 'apple')";
  bad "INSERT INTO items VALUES (9, 'ten', 'apple')";
  bad "INSERT INTO items VALUES (9, 10)";
  bad "UPDATE items SET id = 5 WHERE id = 2";
  bad "SELECT * FROM ghosts";
  bad "SELECT nope FROM items";
  bad "INSERT INTO items VALUES (1, 1, 'dup')";
  bad "CREATE TABLE items (id INT)"

let test_paper_scenario_in_sql () =
  (* The motivating example from the paper's introduction: a table dropped
     by mistake is recovered by mounting an as-of snapshot, inspecting the
     metadata, and reconciling with INSERT ... SELECT. *)
  let eng, s = setup_shop () in
  Sim_clock.advance_us (Engine.clock eng) 2_000_000.0;
  ignore (Executor.run s "CHECKPOINT");
  let t_before_drop = Engine.now_s eng in
  Sim_clock.advance_us (Engine.clock eng) 2_000_000.0;
  ignore (Executor.run s "DROP TABLE items");
  (match Executor.run s "SELECT * FROM items" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "table should be gone");
  (* Mount a snapshot as of a time when the table still existed. *)
  ignore
    (Executor.run s
       (Printf.sprintf "CREATE DATABASE shop_asof AS SNAPSHOT OF shop AS OF %.6f"
          t_before_drop));
  (* The catalog time-travelled: the table is visible in the snapshot. *)
  let r = rows_of (Executor.run s "SELECT * FROM shop_asof.items WHERE id = 2") in
  check "old row visible in snapshot" true (r = [ [ Row.Int 2L; Row.Int 20L; Row.Text "pear" ] ]);
  (* Recreate and reconcile. *)
  ignore (Executor.run s "CREATE TABLE items (id INT PRIMARY KEY, qty INT, name TEXT)");
  let n = affected (Executor.run s "INSERT INTO shop.items SELECT * FROM shop_asof.items") in
  check_int "all rows recovered" 3 n;
  let r = rows_of (Executor.run s "SELECT COUNT(*) FROM items") in
  check "reconciled" true (r = [ [ Row.Int 3L ] ]);
  (* Snapshots are read-only. *)
  match Executor.run s "INSERT INTO shop_asof.items VALUES (9, 9, 'x')" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "snapshot must be read-only"

let test_show_and_use () =
  let _, s = setup_shop () in
  ignore (Executor.run s "CREATE DATABASE other");
  let dbs = rows_of (Executor.run s "SHOW DATABASES") in
  check_int "two databases" 2 (List.length dbs);
  ignore (Executor.run s "USE other");
  check "current switched" true (Executor.current_database s = Some "other");
  let tables = rows_of (Executor.run s "SHOW TABLES") in
  check_int "no tables in fresh db" 0 (List.length tables)

let test_retention_via_sql () =
  let eng, s = setup_shop () in
  let clock = Engine.clock eng in
  ignore (Executor.run s "ALTER DATABASE shop SET UNDO_INTERVAL = 5 SECONDS");
  for i = 10 to 40 do
    Sim_clock.advance_us clock 1_000_000.0;
    ignore (Executor.run s (Printf.sprintf "INSERT INTO items VALUES (%d, 1, 'r')" i));
    if i mod 5 = 0 then ignore (Executor.run s "CHECKPOINT")
  done;
  (* Asking for a snapshot way before the retention window fails cleanly. *)
  (match Executor.run s "CREATE DATABASE old AS SNAPSHOT OF shop AS OF 0.5" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected out-of-retention error");
  (* A recent snapshot works. *)
  ignore (Executor.run s "CREATE DATABASE recent AS SNAPSHOT OF shop AS OF -2");
  check "recent snapshot queryable" true
    (List.length (rows_of (Executor.run s "SELECT * FROM recent.items")) > 0)

let test_order_by_limit () =
  let _, s = setup_shop () in
  let keys q =
    List.map
      (fun row -> match row with Row.Int k :: _ -> Int64.to_int k | _ -> -1)
      (rows_of (Executor.run s q))
  in
  check "order asc" true (keys "SELECT * FROM items ORDER BY qty ASC" = [ 1; 2; 3 ]);
  check "order desc" true (keys "SELECT * FROM items ORDER BY qty DESC" = [ 3; 2; 1 ]);
  check "order by text" true (keys "SELECT * FROM items ORDER BY name" = [ 1; 3; 2 ]);
  check "limit" true (keys "SELECT * FROM items ORDER BY id DESC LIMIT 2" = [ 3; 2 ]);
  check "limit zero" true (keys "SELECT * FROM items LIMIT 0" = []);
  match Executor.run s "SELECT * FROM items ORDER BY ghost" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected error for unknown order column"

let test_aggregates () =
  let _, s = setup_shop () in
  let one q =
    match rows_of (Executor.run s q) with [ row ] -> row | _ -> Alcotest.fail "one row"
  in
  check "sum" true (one "SELECT SUM(qty) FROM items" = [ Row.Int 60L ]);
  check "min/max together" true
    (one "SELECT MIN(qty), MAX(qty), COUNT(*) FROM items"
    = [ Row.Int 10L; Row.Int 30L; Row.Int 3L ]);
  check "filtered sum" true (one "SELECT SUM(qty) FROM items WHERE id >= 2" = [ Row.Int 50L ]);
  check "empty sum is zero" true
    (one "SELECT SUM(qty) FROM items WHERE id > 100" = [ Row.Int 0L ]);
  (match Executor.run s "SELECT MIN(qty) FROM items WHERE id > 100" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "MIN over empty should error");
  match Executor.run s "SELECT SUM(name) FROM items" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "SUM over TEXT should error"

let test_undo_transaction_sql () =
  let _, s = setup_shop () in
  ignore (Executor.run s "INSERT INTO items VALUES (9, 90, 'mistake')");
  let history () =
    List.map
      (function
        | [ Row.Int id; Row.Text at; Row.Int _ ] -> (Int64.to_int id, float_of_string at)
        | _ -> Alcotest.fail "malformed history row")
      (rows_of (Executor.run s "SHOW HISTORY"))
  in
  let listed = history () in
  let rec newest_first = function
    | (id, at) :: ((id', at') :: _ as rest) -> id > id' && at >= at' && newest_first rest
    | _ -> true
  in
  check "history lists newest commit first" true (List.length listed > 1 && newest_first listed);
  (* A rolled-back transaction never committed: it is not listed. *)
  ignore (Executor.run s "BEGIN");
  ignore (Executor.run s "INSERT INTO items VALUES (11, 1, 'rolled back')");
  ignore (Executor.run s "ROLLBACK");
  check "rolled-back transaction left out" true (history () = listed);
  (* The newest committed transaction is the victim. *)
  let victim = fst (List.hd listed) in
  (match Executor.run s (Printf.sprintf "UNDO TRANSACTION %d" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected message");
  check_int "mistake erased" 0
    (List.length (rows_of (Executor.run s "SELECT * FROM items WHERE id = 9")));
  check_int "other rows untouched" 3
    (List.length (rows_of (Executor.run s "SELECT * FROM items")));
  (* Undoing a transaction that later work built on is refused. *)
  ignore (Executor.run s "INSERT INTO items VALUES (10, 1, 'base')");
  let victim2 =
    match rows_of (Executor.run s "SHOW HISTORY") with
    | (Row.Int id :: _) :: _ -> Int64.to_int id
    | _ -> Alcotest.fail "expected history rows"
  in
  ignore (Executor.run s "UPDATE items SET qty = 2 WHERE id = 10");
  (match Executor.run s (Printf.sprintf "UNDO TRANSACTION %d" victim2) with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected conflict error");
  (* Unknown ids are rejected. *)
  match Executor.run s "UNDO TRANSACTION 99999" with
  | exception Executor.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected error for unknown txn"

let test_pp_result () =
  let _, s = setup_shop () in
  let out = Format.asprintf "%a" Executor.pp_result (Executor.run s "SELECT * FROM items") in
  check "header present" true
    (String.length out > 0
    && String.sub out 0 2 = "id"
    && String.length (String.trim out) > 10)

let () =
  Alcotest.run "sql"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer_basics ]);
      ( "parser",
        [
          Alcotest.test_case "create snapshot" `Quick test_parse_create_snapshot;
          Alcotest.test_case "relative time" `Quick test_parse_relative_time;
          Alcotest.test_case "retention" `Quick test_parse_retention;
          Alcotest.test_case "select where" `Quick test_parse_select_where;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "script" `Quick test_parse_script;
        ] );
      ( "executor",
        [
          Alcotest.test_case "crud" `Quick test_crud_roundtrip;
          Alcotest.test_case "where variants" `Quick test_where_variants;
          Alcotest.test_case "transactions" `Quick test_explicit_transaction;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "paper scenario" `Quick test_paper_scenario_in_sql;
          Alcotest.test_case "show/use" `Quick test_show_and_use;
          Alcotest.test_case "retention" `Quick test_retention_via_sql;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "undo transaction" `Quick test_undo_transaction_sql;
          Alcotest.test_case "result formatting" `Quick test_pp_result;
        ] );
    ]
