(** SQL execution against an {!Rw_engine.Engine}.

    A session tracks the current database ([USE ...]) and at most one open
    transaction; statements outside an explicit transaction auto-commit.
    As-of snapshots appear as ordinary (read-only) databases, so the
    paper's recovery workflow is plain SQL:

    {v
      CREATE DATABASE shopdb_asof AS SNAPSHOT OF shopdb AS OF -30;
      SELECT * FROM shopdb_asof.orders;                  -- inspect the past
      INSERT INTO shopdb.orders SELECT * FROM shopdb_asof.orders;  -- reconcile
    v} *)

type session

type result =
  | Rows of { columns : string list; rows : Rw_engine.Row.value list list }
  | Affected of int
  | Message of string

exception Sql_error of string

val create_session : Rw_engine.Engine.t -> session
val current_database : session -> string option

val run : session -> string -> result
(** Parse and execute one statement.  Raises {!Sql_error} on semantic
    errors (unknown table, type mismatch, read-only snapshot writes, ...). *)

val run_script : session -> string -> result list
val pp_result : Format.formatter -> result -> unit
