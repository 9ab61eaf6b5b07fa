module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Page_repair = Rw_recovery.Page_repair
module Database = Rw_engine.Database
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

let most_caught_up = function
  | [] -> invalid_arg "Failover.most_caught_up: no replicas"
  | r :: rest ->
      List.fold_left
        (fun best c -> if Lsn.(Replica.next_lsn c > Replica.next_lsn best) then c else best)
        r rest

let promote r =
  (* The horizon must be read before promotion: recovery appends (CLRs,
     End records, a checkpoint) past it, and those appends are the first
     records of the new timeline. *)
  let horizon = Replica.next_lsn r in
  let db = Database.crash_and_reopen (Replica.db r) in
  Obs.incr Probes.repl_failovers;
  (db, horizon)

let rejoin ~name ~at old_primary =
  let disk = Database.disk old_primary in
  let log = Database.log old_primary in
  (* The old primary died mid-flight: volatile state is gone and pending
     torn writes bite, exactly as in [Database.crash_and_reopen]. *)
  Buffer_pool.drop_all (Database.pool old_primary);
  ignore (Disk.apply_crash disk);
  Log_manager.crash log;
  (* Cut the divergent tail: records at or past the failover point exist
     only on the dead timeline — they never shipped, so they never
     committed on the survivor.  The new primary's stream will recycle
     these LSNs. *)
  ignore (Log_manager.truncate_from log at);
  (* Any disk page written ahead of the cut carries divergent state; the
     retained log rewinds it to the shared prefix. *)
  for i = 0 to Disk.page_count disk - 1 do
    let pid = Page_id.of_int i in
    if Disk.has_page disk pid then begin
      let p = Disk.read_page_nocost disk pid in
      if Lsn.(Page.lsn p >= at) then begin
        match Page_repair.rebuild ~log pid with
        | page -> Disk.write_page_nocost disk pid page
        | exception (Page_repair.Unrepairable _ as e) ->
            if
              Log_manager.located_lsns (Log_manager.chain_segment log pid ~from:at ~down_to:Lsn.nil)
              = [||]
            then
              (* No retained history below the cut: the page was born on
                 the divergent timeline.  Reset it to a never-written
                 (zero) page; if the new timeline allocates the id, the
                 shipped Format record reformats it (nil < every LSN). *)
              Disk.write_page_nocost disk pid (Bytes.make Page.page_size '\000')
            else raise e
      end
    end
  done;
  let db = Database.reopen_redo_only old_primary in
  Replica.of_db ~name db
