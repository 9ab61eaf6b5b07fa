module Lsn = Rw_storage.Lsn
module Log_manager = Rw_wal.Log_manager

exception Out_of_retention of float

type result = { split_lsn : Lsn.t; base_checkpoint : Lsn.t }

(* Newest retained checkpoint taken at or before [wall_us].  The paper's
   search reads the checkpoints back from the newest; the clock still
   prices each of those reads, but the wall times come from the
   control-record directory, so nothing is decoded. *)
let base_checkpoint log ~wall_us =
  let found = ref None in
  Log_manager.iter_checkpoints_rev ~charge:true log (fun lsn wall ->
      if wall <= wall_us then found := Some lsn;
      Option.is_none !found);
  !found

let find ~log ~wall_us =
  let start =
    match base_checkpoint log ~wall_us with
    | Some lsn -> Some lsn
    | None ->
        (* No checkpoint old enough.  If the log still reaches back to the
           database's creation we can scan from its head; otherwise the
           requested time is outside the retention window. *)
        if Lsn.to_int (Log_manager.first_lsn log) > 1 then raise (Out_of_retention wall_us)
        else None
  in
  let scan_from = match start with Some lsn -> lsn | None -> Log_manager.first_lsn log in
  (* The commit and checkpoint records that decide the split are all in the
     control-record directory, so the search reads no record.  The clock
     still prices the paper's sequential scan: every byte from
     [scan_from] through the record that stops the search (or to the end
     of the log). *)
  let last_commit, stop = Log_manager.split_search log ~from:scan_from ~wall_us in
  let scanned_upto =
    match stop with
    | Some lsn -> Log_manager.next_lsn_after log lsn
    | None -> Log_manager.end_lsn log
  in
  Log_manager.charge_scan log ~from:scan_from ~upto:scanned_upto;
  {
    (* The snapshot must contain the last qualifying commit: split just
       after it. *)
    split_lsn =
      (match last_commit with
      | Some lsn -> Log_manager.next_lsn_after log lsn
      | None -> scan_from);
    base_checkpoint = (match start with Some lsn -> lsn | None -> Lsn.nil);
  }
