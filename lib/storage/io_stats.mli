(** I/O counters.

    Each simulated device keeps a set of counters; experiment harnesses
    snapshot and diff them to report figures such as the estimated number of
    undo log I/Os (paper Figure 11). *)

type t = {
  mutable random_reads : int;
  mutable random_writes : int;
  mutable seq_read_bytes : int;
  mutable seq_write_bytes : int;
  mutable random_read_bytes : int;
  mutable random_write_bytes : int;
  mutable log_block_hits : int;
      (** log block cache: read served without simulated I/O *)
  mutable log_block_misses : int;  (** log block cache: priced random read *)
  mutable log_record_hits : int;
      (** always 0: the log keeps no decoded records.  Kept, with
          [log_record_misses], because rwbench's [wal.record_hit_ratio]
          reads both. *)
  mutable log_record_misses : int;
      (** records read from the log: decoded, or handed to a gather as a
          span of their segment *)
  mutable log_flush_calls : int;
      (** log durability requests ([Log_manager.flush] calls, including
          no-ops already covered by a previous batch) *)
  mutable log_flush_batches : int;
      (** priced log writes: one seek + one sequential transfer each *)
  mutable log_commits_coalesced : int;
      (** commit durability acknowledgements delivered by flush batches;
          divided by [log_flush_batches] this is the group-commit
          coalescing factor *)
  mutable faults_injected : int;
      (** faults a {!Fault_plan} actually fired on this device (torn pages
          applied at crash, bit flips, transient errors, torn log tails) *)
  mutable corruptions_detected : int;
      (** checksum/CRC mismatches observed by a reader (page fetch or
          recovery log scan) *)
  mutable pages_repaired : int;
      (** corrupt pages successfully rebuilt from the log *)
  mutable io_retries : int;
      (** extra attempts after transient I/O errors (backoff priced on the
          simulated clock) *)
}

val create : unit -> t
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] is the counter delta between two snapshots. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val pp : Format.formatter -> t -> unit

val pp_caches : Format.formatter -> t -> unit
(** Hit/total summary of the log block cache. *)

val pp_writes : Format.formatter -> t -> unit
(** Batches/requests/coalescing summary of the log write path. *)

val pp_faults : Format.formatter -> t -> unit
(** Injected/detected/repaired/retries summary of the fault-injection
    counters. *)
