open Lexer

exception Parse_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { mutable tokens : token list }

let peek c = match c.tokens with [] -> None | t :: _ -> Some t

let advance c =
  match c.tokens with
  | [] -> error "unexpected end of statement"
  | t :: rest ->
      c.tokens <- rest;
      t

let expect c t =
  let got = advance c in
  if got <> t then error "unexpected token"

let kw_of c = match peek c with Some t -> keyword t | None -> None

let accept_kw c name =
  match kw_of c with
  | Some k when k = name ->
      ignore (advance c);
      true
  | _ -> false

let expect_kw c name = if not (accept_kw c name) then error "expected %s" name

let ident c =
  match advance c with
  | Ident s -> s
  | _ -> error "expected identifier"

let literal c : Ast.literal =
  match advance c with
  | Int_tok n -> Ast.Int_lit n
  | Float_tok f -> Ast.Float_lit f
  | String_tok s -> Ast.Text_lit s
  | Minus -> (
      match advance c with
      | Int_tok n -> Ast.Int_lit (Int64.neg n)
      | Float_tok f -> Ast.Float_lit (-.f)
      | _ -> error "expected number after '-'")
  | _ -> error "expected literal"

let table_ref c : Ast.table_ref =
  let first = ident c in
  match peek c with
  | Some Dot ->
      ignore (advance c);
      { Ast.database = Some first; table = ident c }
  | _ -> { Ast.database = None; table = first }

let comparison c : Ast.comparison =
  match advance c with
  | Eq_tok -> Ast.Eq
  | Ne_tok -> Ast.Ne
  | Lt_tok -> Ast.Lt
  | Le_tok -> Ast.Le
  | Gt_tok -> Ast.Gt
  | Ge_tok -> Ast.Ge
  | _ -> error "expected comparison operator"

let rec conditions c acc =
  let column = ident c in
  (* BETWEEN a AND b sugar. *)
  if accept_kw c "BETWEEN" then begin
    let lo = literal c in
    expect_kw c "AND";
    let hi = literal c in
    let acc =
      { Ast.column; op = Ast.Le; value = hi } :: { Ast.column; op = Ast.Ge; value = lo } :: acc
    in
    if accept_kw c "AND" then conditions c acc else List.rev acc
  end
  else begin
    let op = comparison c in
    let value = literal c in
    let acc = { Ast.column; op; value } :: acc in
    if accept_kw c "AND" then conditions c acc else List.rev acc
  end

let where_clause c = if accept_kw c "WHERE" then conditions c [] else []

let aggregate c : Ast.aggregate option =
  let arg_of kw make =
    if accept_kw c kw then begin
      expect c Lparen;
      let col = ident c in
      expect c Rparen;
      Some (make col)
    end
    else None
  in
  if kw_of c = Some "COUNT" then begin
    ignore (advance c);
    expect c Lparen;
    expect c Star_tok;
    expect c Rparen;
    Some Ast.Count
  end
  else
    match arg_of "SUM" (fun col -> Ast.Sum col) with
    | Some a -> Some a
    | None -> (
        match arg_of "MIN" (fun col -> Ast.Min col) with
        | Some a -> Some a
        | None -> arg_of "MAX" (fun col -> Ast.Max col))

let projection c : Ast.projection =
  match peek c with
  | Some Star_tok ->
      ignore (advance c);
      Ast.Star
  | _ -> (
      match aggregate c with
      | Some first ->
          let rec more acc =
            if peek c = Some Comma then begin
              ignore (advance c);
              match aggregate c with
              | Some a -> more (a :: acc)
              | None -> error "aggregates cannot be mixed with plain columns"
            end
            else List.rev acc
          in
          let aggs = more [ first ] in
          (match aggs with [ Ast.Count ] -> Ast.Count_star | _ -> Ast.Aggregates aggs)
      | None ->
          let rec cols acc =
            let col = ident c in
            if peek c = Some Comma then begin
              ignore (advance c);
              cols (col :: acc)
            end
            else List.rev (col :: acc)
          in
          Ast.Columns (cols []))

let select_body c : Ast.select =
  let proj = projection c in
  expect_kw c "FROM";
  let from = table_ref c in
  let where = where_clause c in
  let order_by =
    if accept_kw c "ORDER" then begin
      expect_kw c "BY";
      let col = ident c in
      let dir =
        if accept_kw c "DESC" then `Desc
        else begin
          ignore (accept_kw c "ASC");
          `Asc
        end
      in
      Some (col, dir)
    end
    else None
  in
  let limit =
    if accept_kw c "LIMIT" then
      match advance c with
      | Int_tok n when n >= 0L -> Some (Int64.to_int n)
      | _ -> error "expected a non-negative integer after LIMIT"
    else None
  in
  { Ast.proj; from; where; order_by; limit }

let col_type c =
  match kw_of c with
  | Some "INT" | Some "INTEGER" | Some "BIGINT" ->
      ignore (advance c);
      Rw_catalog.Schema.Int
  | Some "TEXT" | Some "VARCHAR" | Some "STRING" ->
      ignore (advance c);
      Rw_catalog.Schema.Text
  | _ -> error "expected column type (INT or TEXT)"

let column_defs c =
  expect c Lparen;
  let rec go acc =
    let name = ident c in
    let ty = col_type c in
    (* Tolerate and ignore PRIMARY KEY on the first column. *)
    if accept_kw c "PRIMARY" then expect_kw c "KEY";
    match advance c with
    | Comma -> go ((name, ty) :: acc)
    | Rparen -> List.rev ((name, ty) :: acc)
    | _ -> error "expected ',' or ')' in column list"
  in
  go []

let tuple c =
  expect c Lparen;
  let rec go acc =
    let v = literal c in
    match advance c with
    | Comma -> go (v :: acc)
    | Rparen -> List.rev (v :: acc)
    | _ -> error "expected ',' or ')' in VALUES tuple"
  in
  go []

let as_of_time c : Ast.as_of_time =
  let of_float f = if f < 0.0 then Ast.Relative_s (-.f) else Ast.Absolute_s f in
  match advance c with
  | Int_tok n -> of_float (Int64.to_float n)
  | Float_tok f -> of_float f
  | Minus -> (
      match advance c with
      | Int_tok n -> Ast.Relative_s (Int64.to_float n)
      | Float_tok f -> Ast.Relative_s f
      | _ -> error "expected number after '-'")
  | String_tok s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> of_float f
      | None -> error "cannot parse AS OF time %S (expected simulated seconds)" s)
  | _ -> error "expected AS OF time"

let interval_seconds c =
  let n =
    match advance c with
    | Int_tok n -> Int64.to_float n
    | Float_tok f -> f
    | _ -> error "expected retention interval"
  in
  match kw_of c with
  | Some ("SECOND" | "SECONDS") ->
      ignore (advance c);
      n
  | Some ("MINUTE" | "MINUTES") ->
      ignore (advance c);
      n *. 60.0
  | Some ("HOUR" | "HOURS") ->
      ignore (advance c);
      n *. 3600.0
  | _ -> n

let statement c : Ast.statement =
  match kw_of c with
  | Some "CREATE" -> (
      ignore (advance c);
      match kw_of c with
      | Some "TABLE" ->
          ignore (advance c);
          let table = ident c in
          let columns = column_defs c in
          Ast.Create_table { table; columns }
      | Some "INDEX" ->
          ignore (advance c);
          let name = ident c in
          expect_kw c "ON";
          let table = table_ref c in
          expect c Lparen;
          let column = ident c in
          expect c Rparen;
          Ast.Create_index { name; table; column }
      | Some "DATABASE" -> (
          ignore (advance c);
          let name = ident c in
          match kw_of c with
          | Some "AS" ->
              ignore (advance c);
              expect_kw c "SNAPSHOT";
              expect_kw c "OF";
              let of_ = ident c in
              expect_kw c "AS";
              expect_kw c "OF";
              let as_of = as_of_time c in
              Ast.Create_snapshot { name; of_; as_of }
          | _ -> Ast.Create_database name)
      | _ -> error "expected TABLE, INDEX or DATABASE after CREATE")
  | Some "DROP" -> (
      ignore (advance c);
      match kw_of c with
      | Some "TABLE" ->
          ignore (advance c);
          Ast.Drop_table (ident c)
      | Some "INDEX" ->
          ignore (advance c);
          let name = ident c in
          expect_kw c "ON";
          let table = table_ref c in
          Ast.Drop_index { name; table }
      | Some "DATABASE" ->
          ignore (advance c);
          Ast.Drop_database (ident c)
      | _ -> error "expected TABLE, INDEX or DATABASE after DROP")
  | Some "INSERT" ->
      ignore (advance c);
      expect_kw c "INTO";
      let into = table_ref c in
      if accept_kw c "VALUES" then begin
        let rec tuples acc =
          let t = tuple c in
          if peek c = Some Comma then begin
            ignore (advance c);
            tuples (t :: acc)
          end
          else List.rev (t :: acc)
        in
        Ast.Insert { into; rows = tuples [] }
      end
      else if accept_kw c "SELECT" then
        Ast.Insert_select { into; select = select_body c }
      else error "expected VALUES or SELECT after INSERT INTO"
  | Some "SELECT" ->
      ignore (advance c);
      Ast.Select (select_body c)
  | Some "EXPLAIN" ->
      ignore (advance c);
      expect_kw c "SELECT";
      Ast.Explain (select_body c)
  | Some "UPDATE" ->
      ignore (advance c);
      let table = table_ref c in
      expect_kw c "SET";
      let rec sets acc =
        let col = ident c in
        expect c Eq_tok;
        let v = literal c in
        if peek c = Some Comma then begin
          ignore (advance c);
          sets ((col, v) :: acc)
        end
        else List.rev ((col, v) :: acc)
      in
      let sets = sets [] in
      let where = where_clause c in
      Ast.Update { table; sets; where }
  | Some "DELETE" ->
      ignore (advance c);
      expect_kw c "FROM";
      let from = table_ref c in
      let where = where_clause c in
      Ast.Delete { from; where }
  | Some ("BEGIN" | "START") ->
      ignore (advance c);
      ignore (accept_kw c "TRANSACTION");
      Ast.Begin_txn
  | Some "COMMIT" ->
      ignore (advance c);
      Ast.Commit_txn
  | Some "ROLLBACK" ->
      ignore (advance c);
      Ast.Rollback_txn
  | Some "ALTER" ->
      ignore (advance c);
      expect_kw c "DATABASE";
      let database = ident c in
      expect_kw c "SET";
      expect_kw c "UNDO_INTERVAL";
      if peek c = Some Eq_tok then ignore (advance c);
      if accept_kw c "NONE" then Ast.Alter_retention { database; interval_s = None }
      else Ast.Alter_retention { database; interval_s = Some (interval_seconds c) }
  | Some "USE" ->
      ignore (advance c);
      Ast.Use (ident c)
  | Some "SHOW" -> (
      ignore (advance c);
      match kw_of c with
      | Some "TABLES" ->
          ignore (advance c);
          Ast.Show_tables
      | Some "DATABASES" ->
          ignore (advance c);
          Ast.Show_databases
      | Some "HISTORY" ->
          ignore (advance c);
          Ast.Show_history
      | _ -> error "expected TABLES, DATABASES or HISTORY after SHOW")
  | Some "UNDO" -> (
      (* UNDO TRANSACTION n is an alias of the in-place REWIND TRANSACTION n. *)
      ignore (advance c);
      expect_kw c "TRANSACTION";
      match advance c with
      | Int_tok n -> Ast.Rewind_transaction { txn = Int64.to_int n; view = None }
      | _ -> error "expected transaction id after UNDO TRANSACTION")
  | Some "REWIND" -> (
      ignore (advance c);
      expect_kw c "TRANSACTION";
      match advance c with
      | Int_tok n ->
          let txn = Int64.to_int n in
          if accept_kw c "AS" then Ast.Rewind_transaction { txn; view = Some (ident c) }
          else Ast.Rewind_transaction { txn; view = None }
      | _ -> error "expected transaction id after REWIND TRANSACTION")
  | Some "CHECKPOINT" ->
      ignore (advance c);
      Ast.Checkpoint_stmt
  | Some k -> error "unexpected keyword %s" k
  | None -> error "empty statement"

let parse input =
  let c = { tokens = tokenize input } in
  let stmt = statement c in
  (match peek c with
  | Some Semicolon -> (
      ignore (advance c);
      match peek c with None -> () | Some _ -> error "trailing tokens after ';'")
  | None -> ()
  | Some _ -> error "trailing tokens after statement");
  stmt

let parse_script input =
  let tokens = tokenize input in
  let rec split acc current = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | Semicolon :: rest ->
        split (if current = [] then acc else List.rev current :: acc) [] rest
    | t :: rest -> split acc (t :: current) rest
  in
  let groups = split [] [] tokens in
  List.map
    (fun tokens ->
      let c = { tokens } in
      let stmt = statement c in
      match peek c with None -> stmt | Some _ -> error "trailing tokens in statement")
    groups
