(* Selective transaction undo — the paper's §8 future work, implemented.

   A batch job posts wrong fees to many accounts; instead of rewinding the
   whole database (or restoring anything), the operator finds the guilty
   transaction in the log and removes it: the pages it wrote are rewound
   to just before it and the later transactions that touched them are
   replayed, with conflict detection against later activity.

     dune exec examples/undo_transaction.exe *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Engine = Rw_engine.Engine
module Executor = Rw_sql.Executor
module Row = Rw_engine.Row

let sql s stmt =
  Printf.printf "sql> %s\n" stmt;
  match Executor.run s stmt with
  | result -> Format.printf "%a@." Executor.pp_result result
  | exception Executor.Sql_error msg -> Printf.printf "ERROR: %s\n" msg

let () =
  let eng = Engine.create ~media:Media.ssd () in
  let s = Executor.create_session eng in
  sql s "CREATE DATABASE bank";
  sql s "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)";
  sql s "INSERT INTO accounts VALUES (1, 1000), (2, 1000), (3, 1000)";
  Sim_clock.advance_us (Engine.clock eng) 1_000_000.0;

  print_endline "\n-- the buggy batch job: double-charges every account --";
  let before_batch = Engine.now_s eng in
  sql s "BEGIN";
  sql s "UPDATE accounts SET balance = 800 WHERE id = 1";
  sql s "UPDATE accounts SET balance = 800 WHERE id = 2";
  sql s "UPDATE accounts SET balance = 800 WHERE id = 3";
  sql s "COMMIT";
  let after_batch = Engine.now_s eng in

  Sim_clock.advance_us (Engine.clock eng) 1_000_000.0;
  print_endline "\n-- unrelated activity continues on OTHER rows --";
  sql s "INSERT INTO accounts VALUES (4, 500)";

  print_endline "\n-- find the culprit in the log --";
  sql s "SHOW HISTORY";
  (* The operator knows roughly when the batch ran; pick the transaction
     whose commit time falls in that window. *)
  let victim =
    match Executor.run s "SHOW HISTORY" with
    | Executor.Rows { rows; _ } ->
        List.find_map
          (fun row ->
            match row with
            | [ Row.Int id; Row.Text at; _ ] -> (
                match float_of_string_opt at with
                | Some t when t >= before_batch && t <= after_batch -> Some (Int64.to_int id)
                | _ -> None)
            | _ -> None)
          rows
        |> Option.get
    | _ -> assert false
  in

  Printf.printf "\n-- remove transaction %d, replaying what came after it --\n" victim;
  sql s (Printf.sprintf "UNDO TRANSACTION %d" victim);
  sql s "SELECT * FROM accounts";
  print_endline "balances restored; the unrelated insert (account 4) untouched."
