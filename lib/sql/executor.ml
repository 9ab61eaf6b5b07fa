module Schema = Rw_catalog.Schema
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Io_stats = Rw_storage.Io_stats
module Buffer_pool = Rw_buffer.Buffer_pool
module As_of_snapshot = Rw_core.As_of_snapshot

type session = {
  eng : Engine.t;
  mutable current : string option;
  mutable txn : (Database.t * Database.txn) option;
}

type result =
  | Rows of { columns : string list; rows : Row.value list list }
  | Affected of int
  | Message of string

exception Sql_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

let create_session eng = { eng; current = None; txn = None }
let current_database s = s.current

let resolve_db s = function
  | Some name -> (
      match Engine.find_database s.eng name with
      | Some db -> db
      | None -> error "no such database: %s" name)
  | None -> (
      match s.current with
      | Some name -> (
          match Engine.find_database s.eng name with
          | Some db -> db
          | None -> error "current database %s no longer exists" name)
      | None -> error "no database selected (USE <db>)")

let resolve_table s (r : Ast.table_ref) =
  let db = resolve_db s r.Ast.database in
  match Database.table db r.Ast.table with
  | Some tab -> (db, tab)
  | None -> error "no such table: %s" r.Ast.table

(* Run [f txn] inside the session's open transaction if it belongs to
   [db], else in a fresh auto-committed transaction. *)
let with_write_txn s db f =
  match s.txn with
  | Some (txn_db, txn) ->
      if Database.name txn_db <> Database.name db then
        error "open transaction is on database %s" (Database.name txn_db);
      f txn
  | None -> Database.with_txn db f

let value_of_literal (col : Schema.column) = function
  | Ast.Int_lit n -> (
      match col.Schema.ctype with
      | Schema.Int -> Row.Int n
      | Schema.Text -> error "column %s expects TEXT, got integer" col.Schema.name)
  | Ast.Text_lit t -> (
      match col.Schema.ctype with
      | Schema.Text -> Row.Text t
      | Schema.Int -> error "column %s expects INT, got string" col.Schema.name)
  | Ast.Float_lit _ -> error "column %s: floating point values are not supported" col.Schema.name

let column_index (tab : Schema.table) name =
  let rec go i = function
    | [] -> error "no such column %s in table %s" name tab.Schema.name
    | (c : Schema.column) :: _ when c.Schema.name = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 tab.Schema.columns

let column_at (tab : Schema.table) i = List.nth tab.Schema.columns i

let compare_values a b =
  match (a, b) with
  | Row.Int x, Row.Int y -> Int64.compare x y
  | Row.Text x, Row.Text y -> String.compare x y
  | Row.Int _, Row.Text _ | Row.Text _, Row.Int _ -> error "type mismatch in comparison"

let cond_holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* Compile a WHERE conjunction into (key range, residual predicate). *)
let compile_where (tab : Schema.table) (conds : Ast.condition list) =
  let lo = ref Int64.min_int and hi = ref Int64.max_int in
  let residual = ref [] in
  List.iter
    (fun (c : Ast.condition) ->
      let idx = column_index tab c.Ast.column in
      let col = column_at tab idx in
      let v = value_of_literal col c.Ast.value in
      if idx = 0 then begin
        match (c.Ast.op, v) with
        | Ast.Eq, Row.Int n ->
            lo := Int64.max !lo n;
            hi := Int64.min !hi n
        | Ast.Ge, Row.Int n -> lo := Int64.max !lo n
        | Ast.Gt, Row.Int n -> lo := Int64.max !lo (Int64.add n 1L)
        | Ast.Le, Row.Int n -> hi := Int64.min !hi n
        | Ast.Lt, Row.Int n -> hi := Int64.min !hi (Int64.sub n 1L)
        | (Ast.Ne, _ | _, Row.Text _) -> residual := (idx, c.Ast.op, v) :: !residual
      end
      else residual := (idx, c.Ast.op, v) :: !residual)
    conds;
  let matches row =
    List.for_all
      (fun (idx, op, v) -> cond_holds op (compare_values (List.nth row idx) v))
      !residual
  in
  (!lo, !hi, matches)

(* An equality condition on an indexed non-key column lets the executor
   skip the table scan entirely. *)
let index_path db (tab : Schema.table) (conds : Ast.condition list) =
  List.find_map
    (fun (c : Ast.condition) ->
      if c.Ast.op <> Ast.Eq then None
      else
        let idx = column_index tab c.Ast.column in
        if idx = 0 then None
        else if
          List.exists
            (fun (ix : Schema.index) -> ix.Schema.column = c.Ast.column)
            tab.Schema.indexes
        then
          let v = value_of_literal (column_at tab idx) c.Ast.value in
          Some (Database.lookup_by_index db ~table:tab.Schema.name ~column:c.Ast.column ~value:v)
        else None)
    conds

let select_rows s (sel : Ast.select) =
  let db, tab = resolve_table s sel.Ast.from in
  let lo, hi, matches = compile_where tab sel.Ast.where in
  let rows =
    match index_path db tab sel.Ast.where with
    | Some candidates ->
        List.filter (fun row -> Row.key_of row >= lo && Row.key_of row <= hi && matches row)
          candidates
    | None ->
        let acc = ref [] in
        if lo <= hi then
          Database.range db ~table:tab.Schema.name ~lo ~hi ~f:(fun row ->
              if matches row then acc := row :: !acc);
        List.rev !acc
  in
  let rows =
    match sel.Ast.order_by with
    | None -> rows
    | Some (col, dir) ->
        let idx = column_index tab col in
        let cmp a b = compare_values (List.nth a idx) (List.nth b idx) in
        let sorted = List.stable_sort cmp rows in
        if dir = `Desc then List.rev sorted else sorted
  in
  let rows =
    match sel.Ast.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  (tab, rows)

let all_column_names (tab : Schema.table) =
  List.map (fun (c : Schema.column) -> c.Schema.name) tab.Schema.columns

let int_column tab rows col =
  let idx = column_index tab col in
  (match (column_at tab idx).Schema.ctype with
  | Schema.Int -> ()
  | Schema.Text -> error "aggregate over TEXT column %s" col);
  List.map
    (fun row -> match List.nth row idx with Row.Int v -> v | Row.Text _ -> assert false)
    rows

let eval_aggregate tab rows = function
  | Ast.Count -> ("count", Row.Int (Int64.of_int (List.length rows)))
  | Ast.Sum col ->
      ( Printf.sprintf "sum(%s)" col,
        Row.Int (List.fold_left Int64.add 0L (int_column tab rows col)) )
  | Ast.Min col -> (
      match int_column tab rows col with
      | [] -> error "MIN over no rows"
      | v :: rest -> (Printf.sprintf "min(%s)" col, Row.Int (List.fold_left min v rest)))
  | Ast.Max col -> (
      match int_column tab rows col with
      | [] -> error "MAX over no rows"
      | v :: rest -> (Printf.sprintf "max(%s)" col, Row.Int (List.fold_left max v rest)))

let project (tab : Schema.table) proj rows =
  match proj with
  | Ast.Star -> (all_column_names tab, rows)
  | Ast.Count_star -> ([ "count" ], [ [ Row.Int (Int64.of_int (List.length rows)) ] ])
  | Ast.Aggregates aggs ->
      let results = List.map (eval_aggregate tab rows) aggs in
      (List.map fst results, [ List.map snd results ])
  | Ast.Columns cols ->
      let idxs = List.map (column_index tab) cols in
      (cols, List.map (fun row -> List.map (fun i -> List.nth row i) idxs) rows)

let execute s (stmt : Ast.statement) =
  match stmt with
  | Ast.Create_table { table; columns } ->
      let db = resolve_db s None in
      let columns =
        List.map (fun (name, ctype) -> { Schema.name; ctype }) columns
      in
      with_write_txn s db (fun txn ->
          ignore (Database.create_table db txn ~table ~columns ()));
      Message (Printf.sprintf "table %s created" table)
  | Ast.Drop_table table ->
      let db = resolve_db s None in
      with_write_txn s db (fun txn -> Database.drop_table db txn table);
      Message (Printf.sprintf "table %s dropped" table)
  | Ast.Create_index { name; table; column } ->
      let db, tab = resolve_table s table in
      with_write_txn s db (fun txn ->
          ignore (Database.create_index db txn ~table:tab.Schema.name ~name ~column ()));
      Message (Printf.sprintf "index %s created on %s(%s)" name tab.Schema.name column)
  | Ast.Drop_index { name; table } ->
      let db, tab = resolve_table s table in
      with_write_txn s db (fun txn -> Database.drop_index db txn ~table:tab.Schema.name ~name);
      Message (Printf.sprintf "index %s dropped" name)
  | Ast.Insert { into; rows } ->
      let db, tab = resolve_table s into in
      let typed =
        List.map
          (fun lits ->
            if List.length lits <> List.length tab.Schema.columns then
              error "table %s expects %d values" tab.Schema.name
                (List.length tab.Schema.columns);
            List.map2 value_of_literal tab.Schema.columns lits)
          rows
      in
      with_write_txn s db (fun txn ->
          List.iter (fun row -> Database.insert db txn ~table:tab.Schema.name row) typed);
      Affected (List.length typed)
  | Ast.Insert_select { into; select } ->
      let src_tab, rows = select_rows s select in
      let rows = snd (project src_tab select.Ast.proj rows) in
      (match select.Ast.proj with
      | Ast.Star -> ()
      | _ -> error "INSERT ... SELECT requires SELECT *");
      let db, tab = resolve_table s into in
      if List.length tab.Schema.columns <> List.length src_tab.Schema.columns then
        error "column count mismatch between %s and %s" tab.Schema.name src_tab.Schema.name;
      with_write_txn s db (fun txn ->
          List.iter (fun row -> Database.insert db txn ~table:tab.Schema.name row) rows);
      Affected (List.length rows)
  | Ast.Select sel ->
      let tab, rows = select_rows s sel in
      let columns, rows = project tab sel.Ast.proj rows in
      Rows { columns; rows }
  | Ast.Explain sel ->
      (* Bracket the query with engine-level cost counters and report the
         deltas: on an as-of snapshot this is the paper's per-query rewind
         cost (pages rewound, records undone, log bytes read) made
         visible.  The counters are sampled immediately before and after
         the scan, so the deltas are exactly the query's own work. *)
      let db, _tab = resolve_table s sel.Ast.from in
      let log_stats = Rw_wal.Log_manager.stats (Database.log db) in
      let disk_stats = Rw_storage.Disk.stats (Database.disk db) in
      let pool = Database.pool db in
      let snap = Database.snapshot_handle db in
      let log0 = Io_stats.copy log_stats in
      let disk0 = Io_stats.copy disk_stats in
      let hits0 = Buffer_pool.hits pool and misses0 = Buffer_pool.misses pool in
      let rewinds0, side0 =
        match snap with
        | Some h -> (As_of_snapshot.rewind_count h, As_of_snapshot.side_file_hits h)
        | None -> (0, 0)
      in
      let t0 = Database.now_us db in
      let tab, rows = select_rows s sel in
      let _, projected = project tab sel.Ast.proj rows in
      let t1 = Database.now_us db in
      let logd = Io_stats.diff log_stats log0 in
      let diskd = Io_stats.diff disk_stats disk0 in
      let new_rewinds, side_hits =
        match snap with
        | Some h ->
            let n = As_of_snapshot.rewind_count h - rewinds0 in
            let recent = List.filteri (fun i _ -> i < n) (As_of_snapshot.rewinds h) in
            (recent, As_of_snapshot.side_file_hits h - side0)
        | None -> ([], 0)
      in
      let records_undone =
        List.fold_left (fun a r -> a + r.As_of_snapshot.rc_ops) 0 new_rewinds
      in
      let log_records_read =
        List.fold_left (fun a r -> a + r.As_of_snapshot.rc_log_reads) 0 new_rewinds
      in
      let fpi_jumps =
        List.fold_left (fun a r -> a + if r.As_of_snapshot.rc_fpi then 1 else 0) 0 new_rewinds
      in
      let int v = Row.Int (Int64.of_int v) in
      let metric name v = [ Row.Text name; v ] in
      let header =
        [
          metric "rows_returned" (int (List.length projected));
          metric "elapsed_sim_us" (Row.Text (Printf.sprintf "%.1f" (t1 -. t0)));
          metric "buffer_fetches" (int (Buffer_pool.hits pool - hits0 + Buffer_pool.misses pool - misses0));
          metric "buffer_hits" (int (Buffer_pool.hits pool - hits0));
          metric "buffer_misses" (int (Buffer_pool.misses pool - misses0));
          metric "pages_rewound" (int (List.length new_rewinds));
          metric "records_undone" (int records_undone);
          metric "log_records_read" (int log_records_read);
          metric "fpi_jumps" (int fpi_jumps);
          metric "side_file_hits" (int side_hits);
          metric "log_block_hits" (int logd.Io_stats.log_block_hits);
          metric "log_block_misses" (int logd.Io_stats.log_block_misses);
          metric "log_bytes_read"
            (int (logd.Io_stats.random_read_bytes + logd.Io_stats.seq_read_bytes));
          metric "data_bytes_read"
            (int (diskd.Io_stats.random_read_bytes + diskd.Io_stats.seq_read_bytes));
        ]
      in
      let per_page =
        List.rev_map
          (fun r ->
            metric
              (Printf.sprintf "page %d rewind" (Rw_storage.Page_id.to_int r.As_of_snapshot.rc_page))
              (Row.Text
                 (Printf.sprintf "%d ops, %d log records%s" r.As_of_snapshot.rc_ops
                    r.As_of_snapshot.rc_log_reads
                    (if r.As_of_snapshot.rc_fpi then ", fpi jump" else ""))))
          new_rewinds
      in
      Rows { columns = [ "metric"; "value" ]; rows = header @ per_page }
  | Ast.Update { table; sets; where } ->
      let db, tab = resolve_table s table in
      let lo, hi, matches = compile_where tab where in
      let set_idxs =
        List.map
          (fun (col, lit) ->
            let idx = column_index tab col in
            if idx = 0 then error "cannot update the key column %s" col;
            (idx, value_of_literal (column_at tab idx) lit))
          sets
      in
      let victims = ref [] in
      if lo <= hi then
        Database.range db ~table:tab.Schema.name ~lo ~hi ~f:(fun row ->
            if matches row then victims := row :: !victims);
      with_write_txn s db (fun txn ->
          List.iter
            (fun row ->
              let row' =
                List.mapi
                  (fun i v ->
                    match List.assoc_opt i set_idxs with Some nv -> nv | None -> v)
                  row
              in
              Database.update db txn ~table:tab.Schema.name row')
            !victims);
      Affected (List.length !victims)
  | Ast.Delete { from; where } ->
      let db, tab = resolve_table s from in
      let lo, hi, matches = compile_where tab where in
      let keys = ref [] in
      if lo <= hi then
        Database.range db ~table:tab.Schema.name ~lo ~hi ~f:(fun row ->
            if matches row then keys := Row.key_of row :: !keys);
      with_write_txn s db (fun txn ->
          List.iter (fun key -> Database.delete db txn ~table:tab.Schema.name ~key) !keys);
      Affected (List.length !keys)
  | Ast.Begin_txn ->
      if s.txn <> None then error "transaction already open";
      let db = resolve_db s None in
      let txn = Database.begin_txn db in
      s.txn <- Some (db, txn);
      Message "transaction started"
  | Ast.Commit_txn -> (
      match s.txn with
      | None -> error "no open transaction"
      | Some (db, txn) ->
          Database.commit db txn;
          s.txn <- None;
          Message "committed")
  | Ast.Rollback_txn -> (
      match s.txn with
      | None -> error "no open transaction"
      | Some (db, txn) ->
          Database.rollback db txn;
          s.txn <- None;
          Message "rolled back")
  | Ast.Create_database name ->
      ignore (Engine.create_database s.eng name);
      if s.current = None then s.current <- Some name;
      Message (Printf.sprintf "database %s created" name)
  | Ast.Create_snapshot { name; of_; as_of } ->
      let wall_us =
        match as_of with
        | Ast.Absolute_s sec -> sec *. 1_000_000.0
        | Ast.Relative_s back -> Engine.now_us s.eng -. (back *. 1_000_000.0)
      in
      ignore (Engine.create_snapshot s.eng ~of_ ~name ~wall_us);
      Message (Printf.sprintf "snapshot %s of %s created as of %.3fs" name of_ (wall_us /. 1e6))
  | Ast.Drop_database name ->
      if s.current = Some name then s.current <- None;
      Engine.drop_database s.eng name;
      Message (Printf.sprintf "database %s dropped" name)
  | Ast.Alter_retention { database; interval_s } ->
      let db = resolve_db s (Some database) in
      Database.set_retention db (Option.map (fun sec -> sec *. 1_000_000.0) interval_s);
      ignore (Database.enforce_retention db);
      Message
        (match interval_s with
        | Some sec -> Printf.sprintf "undo interval set to %g seconds" sec
        | None -> "undo interval removed")
  | Ast.Use name ->
      ignore (resolve_db s (Some name));
      s.current <- Some name;
      Message (Printf.sprintf "using %s" name)
  | Ast.Show_tables ->
      let db = resolve_db s None in
      let rows =
        List.map (fun (t : Schema.table) -> [ Row.Text t.Schema.name ]) (Database.tables db)
      in
      Rows { columns = [ "table" ]; rows }
  | Ast.Show_databases ->
      let rows = List.map (fun n -> [ Row.Text n ]) (Engine.database_names s.eng) in
      Rows { columns = [ "database" ]; rows }
  | Ast.Show_history ->
      let db = resolve_db s None in
      let rows =
        List.rev_map
          (fun (ts : Rw_wal.Log_manager.txn_summary) ->
            [
              Row.Int (Rw_wal.Txn_id.to_int64 ts.ts_txn);
              Row.Text (Printf.sprintf "%.6f" (ts.ts_commit_wall_us /. 1_000_000.0));
              Row.Int (Int64.of_int ts.ts_ops);
            ])
          (Rw_wal.Log_manager.txn_summaries (Database.log db))
      in
      Rows { columns = [ "txn"; "committed_at_s"; "page_ops" ]; rows }
  | Ast.Rewind_transaction { txn; view } -> (
      let db = resolve_db s None in
      if s.txn <> None then error "REWIND TRANSACTION cannot run inside an open transaction";
      if Database.is_read_only db then
        error "database %s is a read-only snapshot" (Database.name db);
      let log = Database.log db in
      let graph = Rw_whatif.Dep_graph.build ~log in
      let victim = Rw_wal.Txn_id.of_int txn in
      let describe cs =
        String.concat "; "
          (List.map (fun (c : Rw_whatif.Selective.conflict) -> c.Rw_whatif.Selective.reason) cs)
      in
      try
        match view with
        | None -> (
            match
              Rw_whatif.Selective.repair ~ctx:(Database.ctx db) ~log ~graph ~victim
                ~wall_us:(Database.now_us db) ()
            with
            | Ok (st : Rw_whatif.Selective.stats) ->
                Message
                  (Printf.sprintf
                     "transaction %d removed in place: %d dependent transaction%s replayed \
                      over %d page%s (%d ops unwound, %d replayed)"
                     txn st.replayed_txns
                     (if st.replayed_txns = 1 then "" else "s")
                     st.pages_rewound
                     (if st.pages_rewound = 1 then "" else "s")
                     st.ops_unwound st.ops_replayed)
            | Error cs -> error "cannot rewind transaction %d: %s" txn (describe cs))
        | Some name -> (
            match
              Rw_whatif.Selective.what_if_view ~engine:s.eng ~db ~graph ~victim ~name
            with
            | Ok (_, (st : Rw_whatif.Selective.stats)) ->
                Message
                  (Printf.sprintf
                     "what-if view %s created without transaction %d: %d dependent \
                      transaction%s replayed over %d page%s"
                     name txn st.replayed_txns
                     (if st.replayed_txns = 1 then "" else "s")
                     st.pages_rewound
                     (if st.pages_rewound = 1 then "" else "s"))
            | Error cs -> error "cannot rewind transaction %d: %s" txn (describe cs))
      with Rw_whatif.Selective.Unknown_txn _ ->
        error "no committed transaction %d in the retained log" txn)
  | Ast.Checkpoint_stmt ->
      let db = resolve_db s None in
      ignore (Database.checkpoint db);
      ignore (Database.enforce_retention db);
      Message "checkpoint complete"

let execute s stmt =
  try execute s stmt with
  | Database.Read_only name -> error "database %s is a read-only snapshot" name
  | Rw_catalog.System_tables.No_such_table t -> error "no such table: %s" t
  | Rw_catalog.System_tables.Table_exists t -> error "table already exists: %s" t
  | Engine.No_such_database d -> error "no such database: %s" d
  | Engine.Database_exists d -> error "database already exists: %s" d
  | Rw_access.Btree.Duplicate_key k -> error "duplicate key %Ld" k
  | Database.No_such_index name -> error "no such index: %s" name
  | Rw_core.Split_lsn.Out_of_retention _ ->
      error "requested time is outside the retention period"
  | Not_found -> error "no matching row"
  | Row.Type_error msg -> error "%s" msg
  | Invalid_argument msg -> error "%s" msg

let run s input = execute s (Parser.parse input)
let run_script s input = List.map (execute s) (Parser.parse_script input)

let pp_result fmt = function
  | Message m -> Format.fprintf fmt "%s" m
  | Affected n -> Format.fprintf fmt "%d row%s affected" n (if n = 1 then "" else "s")
  | Rows { columns; rows } ->
      let render_value = function
        | Row.Int n -> Int64.to_string n
        | Row.Text t -> t
      in
      let table = List.map (List.map render_value) rows in
      let widths =
        List.mapi
          (fun i col ->
            List.fold_left
              (fun acc row -> max acc (String.length (List.nth row i)))
              (String.length col) table)
          columns
      in
      let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
      Format.fprintf fmt "%s@\n"
        (String.concat " | " (List.map2 pad columns widths));
      Format.fprintf fmt "%s@\n"
        (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
      List.iter
        (fun row ->
          Format.fprintf fmt "%s@\n" (String.concat " | " (List.map2 pad row widths)))
        table;
      Format.fprintf fmt "(%d row%s)" (List.length rows)
        (if List.length rows = 1 then "" else "s")
