(** Abstract syntax of the SQL subset.

    Large enough to run the paper's user-facing scenario end to end —
    creating and dropping tables, DML, transactions, as-of snapshots
    ([CREATE DATABASE ... AS SNAPSHOT OF ... AS OF ...]), retention
    ([ALTER DATABASE ... SET UNDO_INTERVAL ...]) and the
    [INSERT ... SELECT] reconciliation step. *)

type literal = Int_lit of int64 | Text_lit of string | Float_lit of float

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type condition = { column : string; op : comparison; value : literal }
(** WHERE clauses are conjunctions of simple comparisons. *)

type table_ref = { database : string option; table : string }

type aggregate = Count | Sum of string | Min of string | Max of string

type projection =
  | Star
  | Count_star
  | Columns of string list
  | Aggregates of aggregate list

type select = {
  proj : projection;
  from : table_ref;
  where : condition list;  (** conjunction; empty = all rows *)
  order_by : (string * [ `Asc | `Desc ]) option;
  limit : int option;
}

type as_of_time =
  | Absolute_s of float  (** simulated seconds since engine start *)
  | Relative_s of float  (** seconds before now (positive number) *)

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
      (** committed transactions in the retained log (id, commit time,
          operation count), newest commit first — the hunting ground for
          {!Rewind_transaction} *)
  | Rewind_transaction of { txn : int; view : string option }
      (** remove one committed transaction {e and replay its dependents}
          ([Rw_whatif.Selective]; the paper's §8 future work): with
          [view = Some name] the victim-free state is published as a
          read-only what-if database named [name]; with [None] it is
          repaired in place.  [UNDO TRANSACTION n] parses to the in-place
          form *)
  | Checkpoint_stmt
  | Explain of select
      (** run the query and report its rewind cost — pages rewound,
          records undone, log bytes read (docs/OBSERVABILITY.md) *)

val pp_literal : Format.formatter -> literal -> unit
val pp_statement : Format.formatter -> statement -> unit
