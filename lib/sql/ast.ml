type literal = Int_lit of int64 | Text_lit of string | Float_lit of float

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type condition = { column : string; op : comparison; value : literal }

type table_ref = { database : string option; table : string }

type aggregate = Count | Sum of string | Min of string | Max of string

type projection = Star | Count_star | Columns of string list | Aggregates of aggregate list

type select = {
  proj : projection;
  from : table_ref;
  where : condition list;
  order_by : (string * [ `Asc | `Desc ]) option;
  limit : int option;
}

type as_of_time = Absolute_s of float | Relative_s of float

type statement =
  | Create_table of { table : string; columns : (string * Rw_catalog.Schema.col_type) list }
  | Drop_table of string
  | Create_index of { name : string; table : table_ref; column : string }
  | Drop_index of { name : string; table : table_ref }
  | Insert of { into : table_ref; rows : literal list list }
  | Insert_select of { into : table_ref; select : select }
  | Select of select
  | Update of { table : table_ref; sets : (string * literal) list; where : condition list }
  | Delete of { from : table_ref; where : condition list }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Create_database of string
  | Create_snapshot of { name : string; of_ : string; as_of : as_of_time }
  | Drop_database of string
  | Alter_retention of { database : string; interval_s : float option }
  | Use of string
  | Show_tables
  | Show_databases
  | Show_history
  | Rewind_transaction of { txn : int; view : string option }
  | Checkpoint_stmt
  | Explain of select

let pp_literal fmt = function
  | Int_lit n -> Format.fprintf fmt "%Ld" n
  | Text_lit s -> Format.fprintf fmt "'%s'" s
  | Float_lit f -> Format.fprintf fmt "%g" f

let op_name = function Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp_table_ref fmt { database; table } =
  match database with
  | Some db -> Format.fprintf fmt "%s.%s" db table
  | None -> Format.fprintf fmt "%s" table

let pp_statement fmt = function
  | Create_table { table; _ } -> Format.fprintf fmt "CREATE TABLE %s" table
  | Drop_table t -> Format.fprintf fmt "DROP TABLE %s" t
  | Create_index { name; table; column } ->
      Format.fprintf fmt "CREATE INDEX %s ON %a (%s)" name pp_table_ref table column
  | Drop_index { name; table } ->
      Format.fprintf fmt "DROP INDEX %s ON %a" name pp_table_ref table
  | Insert { into; rows } ->
      Format.fprintf fmt "INSERT INTO %a (%d rows)" pp_table_ref into (List.length rows)
  | Insert_select { into; select } ->
      Format.fprintf fmt "INSERT INTO %a SELECT FROM %a" pp_table_ref into pp_table_ref
        select.from
  | Select s ->
      Format.fprintf fmt "SELECT FROM %a" pp_table_ref s.from;
      List.iter
        (fun c -> Format.fprintf fmt " %s %s %a" c.column (op_name c.op) pp_literal c.value)
        s.where
  | Update { table; _ } -> Format.fprintf fmt "UPDATE %a" pp_table_ref table
  | Delete { from; _ } -> Format.fprintf fmt "DELETE FROM %a" pp_table_ref from
  | Begin_txn -> Format.fprintf fmt "BEGIN"
  | Commit_txn -> Format.fprintf fmt "COMMIT"
  | Rollback_txn -> Format.fprintf fmt "ROLLBACK"
  | Create_database d -> Format.fprintf fmt "CREATE DATABASE %s" d
  | Create_snapshot { name; of_; _ } ->
      Format.fprintf fmt "CREATE DATABASE %s AS SNAPSHOT OF %s" name of_
  | Drop_database d -> Format.fprintf fmt "DROP DATABASE %s" d
  | Alter_retention { database; _ } -> Format.fprintf fmt "ALTER DATABASE %s" database
  | Use d -> Format.fprintf fmt "USE %s" d
  | Show_tables -> Format.fprintf fmt "SHOW TABLES"
  | Show_databases -> Format.fprintf fmt "SHOW DATABASES"
  | Show_history -> Format.fprintf fmt "SHOW HISTORY"
  | Rewind_transaction { txn; view = None } ->
      Format.fprintf fmt "REWIND TRANSACTION %d" txn
  | Rewind_transaction { txn; view = Some name } ->
      Format.fprintf fmt "REWIND TRANSACTION %d AS %s" txn name
  | Checkpoint_stmt -> Format.fprintf fmt "CHECKPOINT"
  | Explain s -> Format.fprintf fmt "EXPLAIN SELECT FROM %a" pp_table_ref s.from
