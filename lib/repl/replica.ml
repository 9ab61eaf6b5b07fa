module Lsn = Rw_storage.Lsn
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Recovery = Rw_recovery.Recovery
module Database = Rw_engine.Database

exception Stale_horizon of { requested_us : float; applied_us : float }

type t = {
  name : string;
  mutable db : Database.t;
  mutable next_lsn : Lsn.t;
  mutable applied_wall_us : float;
}

(* The applied horizon, recomputed from the log alone (restart, rejoin):
   the newest commit/checkpoint wall time at or after the master record.
   Scanning only from the recovery checkpoint may under-estimate — that is
   safe: a conservative horizon refuses reads it could have served, never
   serves reads it cannot prove. *)
let newest_wall log =
  let from =
    let c = Log_manager.last_checkpoint log in
    if Lsn.is_nil c then Log_manager.first_lsn log else c
  in
  let wall = ref 0.0 in
  Log_manager.iter_range_peek log ~from ~upto:(Log_manager.end_lsn log)
    (fun _lsn pk decode ->
      match pk.Log_record.p_kind with
      | Log_record.K_commit | Log_record.K_checkpoint -> (
          match (decode ()).Log_record.body with
          | Log_record.Commit { wall_us } | Log_record.Checkpoint { wall_us; _ } ->
              if wall_us > !wall then wall := wall_us
          | _ -> ())
      | _ -> ());
  !wall

let of_db ~name db =
  let log = Database.log db in
  { name; db; next_lsn = Log_manager.end_lsn log; applied_wall_us = newest_wall log }

let of_primary ~name primary =
  let path = Filename.temp_file "rewind_repl" ".db" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* The initial base backup: checkpoint + full image.  The replica
         shares the primary's clock (one timeline) and media models, and
         its log after load ends exactly at the primary's end of log at
         save time — the first shipment resumes right there. *)
      Database.save primary ~path;
      let db =
        Database.load ~clock:(Database.clock primary) ~media:(Database.media primary)
          ~log_media:(Database.log_media primary) ~path ()
      in
      of_db ~name db)

let db t = t.db
let name t = t.name
let next_lsn t = t.next_lsn
let applied_wall_us t = t.applied_wall_us

let ingest t (ex : Log_manager.export) =
  let log = Database.log t.db in
  let applied = Log_manager.ingest_entries log ex.Log_manager.ex_entries in
  if applied = 0 then 0
  else begin
    let from = t.next_lsn in
    let upto = Log_manager.end_lsn log in
    let redone = Recovery.redo_range ~log ~pool:(Database.pool t.db) ~from ~upto in
    (* Horizon + recovery-checkpoint maintenance from the fresh records'
       control-directory entries. *)
    let ckpt = ref Lsn.nil in
    Log_manager.iter_controls log ~from (fun lsn kind _txn wall_us ->
        (match kind with
        | Log_record.K_commit | Log_record.K_checkpoint ->
            if wall_us > t.applied_wall_us then t.applied_wall_us <- wall_us;
            if kind = Log_record.K_checkpoint then ckpt := lsn
        | _ -> ());
        true);
    t.next_lsn <- upto;
    if Lsn.(!ckpt > Lsn.nil) then begin
      (* The shipment carried one of the primary's checkpoints: flush the
         redone pages first, then advance the master record.  Order
         matters — the master record must never point past page state
         that is still volatile.  (The checkpoint's embedded dirty-page
         table describes the primary's pool, not ours; at worst restart
         analysis re-redoes a little, and redo is idempotent.) *)
      Buffer_pool.flush_all (Database.pool t.db);
      Log_manager.set_last_checkpoint log !ckpt
    end;
    redone
  end

let query_as_of t ~name ~wall_us =
  if wall_us > t.applied_wall_us then
    raise (Stale_horizon { requested_us = wall_us; applied_us = t.applied_wall_us });
  Database.create_as_of_snapshot t.db ~name ~wall_us

let crash_and_reopen t =
  t.db <- Database.reopen_redo_only t.db;
  let log = Database.log t.db in
  t.next_lsn <- Log_manager.end_lsn log;
  t.applied_wall_us <- newest_wall log
