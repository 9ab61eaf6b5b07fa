module Log_manager = Rw_wal.Log_manager
module Schema = Rw_catalog.Schema
module Media = Rw_storage.Media
module Database = Rw_engine.Database
module Engine = Rw_engine.Engine
module Row = Rw_engine.Row
module Access_ctx = Rw_access.Access_ctx
module Tpcc = Rw_workload.Tpcc

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let seconds us = us /. 1_000_000.0

type setup = {
  eng : Engine.t;
  db : Database.t;
  drv : Tpcc.t;
  cfg : Tpcc.config;
  t_run_start : float;
  t_run_end : float;
}

(* The figure harness logs no full page images unless a row sweeps the
   policy, so the paper's baselines stay fixed as the engine default
   moves. *)
let build ?(fpi = Access_ctx.Off) ?(media = Media.ssd) ?log_media ?log_cache_blocks ?log_block_bytes
    ?log_segment_bytes ?(group_commit = Some (64 * 1024, 2_000.0)) ?(cfg = Tpcc.default_config)
    ~history_txns () =
  let eng = Engine.create ~media ?log_media () in
  let db =
    Engine.create_database eng ~fpi ~pool_capacity:1024
      ~checkpoint_interval_us:2_000_000.0 ?log_cache_blocks ?log_block_bytes ?log_segment_bytes
      "tpcc"
  in
  (* The workload driver runs on the batched commit API: flush once per
     64KiB of log tail or 2ms of simulated waiter age, whichever first. *)
  (match group_commit with
  | Some (max_batch_bytes, max_delay_us) ->
      Database.set_group_commit db ~max_batch_bytes ~max_delay_us
  | None -> ());
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let t_run_start = Engine.now_us eng in
  if history_txns > 0 then ignore (Tpcc.run_mix drv ~txns:history_txns);
  { eng; db; drv; cfg; t_run_start; t_run_end = Engine.now_us eng }

let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d" prefix !n

let time_of eng f =
  let t0 = Engine.now_us eng in
  let v = f () in
  (v, Engine.now_us eng -. t0)

let straggler_key = 999_999L

(* --- the rewrite history --- *)

let payload round i = Printf.sprintf "%04d-%06d-%s" round i (String.make 110 'x')

let load_rows db ~rows =
  let cols =
    [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]
  in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to rows do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (payload 0 i) ]
      done);
  ignore (Database.checkpoint db)

let rewrite_rows db ~rows ~rounds =
  for r = 1 to rounds do
    Database.with_txn db (fun txn ->
        for j = 0 to rows - 1 do
          let i = (j * 37 mod rows) + 1 in
          Database.update db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (payload r i) ]
        done)
  done;
  Log_manager.flush_all (Database.log db)
