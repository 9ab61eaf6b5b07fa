(** The set-up every experiment family shares: a TPC-C database with some
    committed history, table headers, database names and modeled timing,
    and the rewrite history that e12 and bench's restart and replica
    microbenchmarks replay. *)

module Database = Rw_engine.Database
module Engine = Rw_engine.Engine
module Tpcc = Rw_workload.Tpcc

val header : string -> unit
(** Print ["=== <title> ==="] after a blank line. *)

val seconds : float -> float
(** Microseconds to seconds. *)

type setup = {
  eng : Engine.t;
  db : Database.t;
  drv : Tpcc.t;
  cfg : Tpcc.config;
  t_run_start : float;  (** sim time when the measured history began *)
  t_run_end : float;
}

val build :
  ?fpi:Rw_access.Access_ctx.fpi ->
  ?media:Rw_storage.Media.t ->
  ?log_media:Rw_storage.Media.t ->
  ?log_cache_blocks:int ->
  ?log_block_bytes:int ->
  ?log_segment_bytes:int ->
  ?group_commit:(int * float) option ->
  ?cfg:Tpcc.config ->
  history_txns:int ->
  unit ->
  setup
(** A fresh engine with one TPC-C database ["tpcc"] (1,024-frame pool, a
    checkpoint every 2 simulated seconds), loaded and checkpointed, then
    [history_txns] transactions of the mix.  [fpi] defaults to no full
    page images, so the paper's baselines stay fixed as the engine default
    moves; [group_commit] (max batch bytes, max delay us) defaults to
    64 KiB or 2 ms. *)

val fresh_name : string -> string
(** ["<prefix>_<n>"], [n] counting up across every family, so a run of
    experiments names its databases and snapshots in one order. *)

val time_of : Engine.t -> (unit -> 'a) -> 'a * float
(** The result of the thunk and the simulated microseconds it took. *)

val straggler_key : int64
(** The [item] key of the transaction a crash leaves in flight. *)

(** {2 Rewrite history}

    A table [t (id INT, val TEXT)] whose rows are rewritten whole, round
    after round, in an order that scatters consecutive log records over
    the table's pages. *)

val load_rows : Database.t -> rows:int -> unit
(** Create [t], insert rows [1..rows] with round-0 payloads (a 110-byte
    tail) in one transaction, and checkpoint. *)

val rewrite_rows : Database.t -> rows:int -> rounds:int -> unit
(** [rounds] transactions, round [r] updating every row in stride-37
    order to its round-[r] payload; then flush the log. *)
