(** Wall-clock time to SplitLSN translation (paper §5.1).

    The search first narrows the log region using checkpoint records (which
    carry wall-clock time) and then scans commit records to find the exact
    boundary: the SplitLSN is the position just after the last transaction
    that committed at or before the requested time, so the snapshot contains
    exactly the transactions a user would consider committed at that
    moment. *)

exception Out_of_retention of float
(** The requested time precedes the retained log. *)

type result = {
  split_lsn : Rw_storage.Lsn.t;
  base_checkpoint : Rw_storage.Lsn.t;
      (** newest retained checkpoint at or before the split — where snapshot
          recovery's analysis starts ([Lsn.nil] if scanning from the log
          head) *)
}

val find : log:Rw_wal.Log_manager.t -> wall_us:float -> result
(** The split for [wall_us].  The base checkpoint is found by reading the
    checkpoints back from the newest, each read priced on the clock; the
    split itself by {!Rw_wal.Log_manager.split_search}, a binary search
    of the control-record directory, priced as the paper's sequential scan
    from the base checkpoint (or the log's head) through the record that
    stops it.  No record is decoded.  Raises {!Out_of_retention} when no
    retained checkpoint is old enough and the log no longer reaches back
    to its first record. *)
