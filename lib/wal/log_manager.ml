(* The façade over the log's three parts: [Log_segments] (physical
   layout), [Log_index] (chains, images, controls, transactions) and
   [Log_read] (every read-side pricing decision).  What is left here is
   what spans them: append and flush, retention, crash and tail repair,
   persistence and shipping. *)

module Lsn = Rw_storage.Lsn
module Media = Rw_storage.Media
module Io_stats = Rw_storage.Io_stats
module Fault_plan = Rw_storage.Fault_plan
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace
open Log_segments

exception Log_truncated = Log_segments.Log_truncated
exception No_such_record = Log_segments.No_such_record

type t = Log_segments.t
type gathered = Log_read.gathered = { g_blob : Bytes.t array; g_pos : int array; g_len : int array }
type located = Log_segments.located
type batch = Log_read.batch = { b_pages : gathered option array; b_windows_us : float array }

type txn_summary = Log_index.txn_summary = {
  ts_txn : Txn_id.t;
  ts_first_lsn : Lsn.t;
  ts_commit_lsn : Lsn.t;
  ts_commit_wall_us : float;
  ts_ops : int;
  ts_has_clr : bool;
  ts_structural : bool;
  ts_writes : (Rw_storage.Page_id.t * Lsn.t) list;
}

let create ~clock ~media ?(cache_blocks = 128) ?(block_bytes = 65536)
    ?(segment_bytes = 1024 * 1024) ?fault_plan () =
  {
    clock;
    media;
    io = Io_stats.create ();
    fault_plan;
    segment_bytes = max segment_bytes 64;
    segs = Array.make 8 tombstone;
    seg_lo = 0;
    seg_hi = 0;
    nrecords = 0;
    end_lsn = Lsn.of_int 1;
    flushed_lsn = Lsn.of_int 1;
    truncated_below = Lsn.of_int 1;
    cache = Lru.create ~capacity:cache_blocks;
    block_bytes;
    last_checkpoint = Lsn.nil;
    total_appended_bytes = 0;
    unflushed_bytes = 0;
    resident_payload = 0;
    index_bytes = 0;
    sealed_count = 0;
    spilled_count = 0;
    loaded_count = 0;
    dropped_count = 0;
    invalidation_epoch = 0;
    ctl_live = Rw_storage.Int_tbl.create 16;
    ctl_max_wall = Float.neg_infinity;
    ctl_stale = false;
    txn_index = Rw_storage.Int_tbl.create 64;
    torn = [];
  }

let clock t = t.clock
let stats t = t.io
let flushed_lsn t = t.flushed_lsn
let end_lsn t = t.end_lsn
let first_lsn t = t.truncated_below
let last_checkpoint t = t.last_checkpoint
let set_last_checkpoint t lsn = t.last_checkpoint <- lsn
let total_appended_bytes t = t.total_appended_bytes
let retained_bytes t = Lsn.to_int t.end_lsn - Lsn.to_int t.truncated_below
let record_count t = t.nrecords
let invalidation_epoch t = t.invalidation_epoch
let unflushed_bytes t = t.unflushed_bytes
let segment_count = Log_segments.segment_count
let segment_size t = t.segment_bytes
let resident_bytes = Log_segments.resident_bytes

type segment_stats = {
  ss_live : int;
  ss_sealed : int;
  ss_spilled : int;
  ss_loaded : int;
  ss_dropped : int;
  ss_resident_bytes : int;
  ss_payload_bytes : int;
  ss_index_bytes : int;
  ss_segment_bytes : int;
}

let segment_stats t =
  {
    ss_live = segment_count t;
    ss_sealed = t.sealed_count;
    ss_spilled = t.spilled_count;
    ss_loaded = t.loaded_count;
    ss_dropped = t.dropped_count;
    ss_resident_bytes = resident_bytes t;
    ss_payload_bytes = t.resident_payload;
    ss_index_bytes = t.index_bytes;
    ss_segment_bytes = t.segment_bytes;
  }

(* ---------- the parts' queries ---------- *)

let read = Log_read.read
let charge_read = Log_read.charge_read
let gather_batch = Log_read.gather_batch
let gather_range = Log_read.gather_range
let iter_range_peek = Log_read.iter_range_peek
let charge_scan = Log_read.charge_scan
let peek_record = Log_segments.peek_record
let mem = Log_segments.mem
let next_lsn_after = Log_segments.next_lsn_after
let iter_controls = Log_index.iter_controls
let split_search = Log_index.split_search
let none_in_flight = Log_index.none_in_flight

(* With [charge], each checkpoint visited is priced as [charge_read]
   prices it, at its known position. *)
let iter_checkpoints_rev ?(charge = false) t f =
  Log_index.iter_checkpoints_rev t (fun s i lsn wall ->
      if charge then Log_read.charge_blocks t s (Lsn.of_int lsn) (rec_len s i);
      f (Lsn.of_int lsn) wall)

let no_records = Log_segments.no_records
let located_lsns = Log_segments.located_lsns
let peek_located = Log_segments.peek_located
let sub_located = Log_segments.sub_located
let append_located = Log_segments.append_located
let earliest_fpi_after = Log_index.earliest_fpi_after
let chain_segment = Log_index.chain_segment
let pages_changed_since = Log_index.pages_changed_since
let txn_summaries = Log_index.txn_summaries
let txn_resolution = Log_index.txn_resolution

(* ---------- append path ---------- *)

(* The ingestion step of [restore_entries] and [ingest_entries]: place
   an encoded record and index it.  Their bytes come from outside the
   process and have passed their CRC check by now. *)
let place t data lsn =
  let len = String.length data in
  let seg = reserve t lsn len in
  let pos = Lsn.to_int lsn - seg.s_base in
  Bytes.blit_string data 0 seg.s_blob pos len;
  Log_index.index_record t seg (Log_record.peek_bytes seg.s_blob ~pos ~len) lsn;
  seg

(* The write-path accounting every new tail record pays. *)
let appended t seg lsn len =
  t.unflushed_bytes <- t.unflushed_bytes + len;
  Log_read.touch_cache_on_append t lsn len;
  Obs.incr Probes.log_appends;
  Obs.add Probes.log_append_bytes len;
  if full t seg then seal_segment t seg else update_resident_gauge t

(* Encoded once, straight into the segment blob, and indexed from the
   record's own fields: no intermediate string and no header parse. *)
let append t record =
  let len = Log_record.encoded_size record in
  let lsn = t.end_lsn in
  let seg = reserve t lsn len in
  Log_record.encode_into record seg.s_blob ~pos:(Lsn.to_int lsn - seg.s_base);
  Log_index.index_record t seg (Log_record.peek_of record ~len) lsn;
  appended t seg lsn len;
  lsn

(* A full page image, encoded straight into the segment blob: no record
   value, no intermediate string. *)
let append_image t ~page ~prev_page_lsn image =
  let len = Log_record.image_record_size in
  let lsn = t.end_lsn in
  let seg = reserve t lsn len in
  let pos = Lsn.to_int lsn - seg.s_base in
  Log_record.encode_image_into seg.s_blob ~pos ~page ~prev_page_lsn image;
  Log_index.index_record t seg (Log_record.peek_bytes seg.s_blob ~pos ~len) lsn;
  appended t seg lsn len;
  lsn

let flush t ~upto =
  t.io.Io_stats.log_flush_calls <- t.io.Io_stats.log_flush_calls + 1;
  if Lsn.(t.flushed_lsn <= upto) && Lsn.(t.flushed_lsn < t.end_lsn) then begin
    (* Group commit: one sync plus the sequential transfer of everything
       buffered.  Requests already covered by an earlier batch fall through
       without touching the device — the calls/batches counter gap is the
       coalescing the write path achieves. *)
    t.io.Io_stats.log_flush_batches <- t.io.Io_stats.log_flush_batches + 1;
    let batch_bytes = t.unflushed_bytes in
    let ts = if Trace.on () then Trace.now () else 0.0 in
    Media.random_write t.media t.clock t.io 0;
    Media.seq_write t.media t.clock t.io t.unflushed_bytes;
    t.unflushed_bytes <- 0;
    t.flushed_lsn <- t.end_lsn;
    Obs.observe Probes.flush_batch_bytes (float_of_int batch_bytes);
    if Trace.on () then
      Trace.complete ~cat:"wal" ~ts
        ~args:[ ("bytes", Trace.Int batch_bytes) ]
        "log.flush_batch"
  end

let flush_all t = flush t ~upto:(Lsn.of_int (max 1 (Lsn.to_int t.end_lsn - 1)))

(* ---------- truncation (retention) ---------- *)

let truncate_before t lsn =
  if Lsn.(lsn > t.truncated_below) then begin
    drop_head t (Lsn.to_int lsn);
    t.invalidation_epoch <- t.invalidation_epoch + 1;
    Log_index.drop_txns_before t lsn;
    update_resident_gauge t
  end

(* ---------- persistence ---------- *)

let dump_entries t =
  let acc = ref [] in
  iter_from t ~from:t.truncated_below ~upto:t.end_lsn (fun s i ->
      acc := (Lsn.of_int s.s_lsns.(i), rec_data s i) :: !acc;
      true);
  List.rev !acc

(* A fresh log adopts the origin of the first record it is given, from a
   persisted dump or a primary's first shipment. *)
let adopt_origin t first =
  t.truncated_below <- first;
  t.flushed_lsn <- first;
  t.end_lsn <- first

let restore_entries t entries =
  if t.nrecords > 0 || Lsn.to_int t.end_lsn > 1 then
    invalid_arg "Log_manager.restore_entries: log not empty";
  (match entries with [] -> () | (first, _) :: _ -> adopt_origin t first);
  List.iter
    (fun (lsn, data) ->
      if not (Lsn.equal lsn t.end_lsn) then
        invalid_arg "Log_manager.restore_entries: non-contiguous entries";
      (* The bytes come from a file: their CRC is checked here, once. *)
      if not (Log_record.check data) then raise Log_record.Corrupt_record;
      let seg = place t data lsn in
      (* Replay sealing so a restored log has the same segment shape as
         the one that was dumped — but unpriced: persistence is an
         offline operation. *)
      if full t seg then seal_segment t ~priced:false seg)
    entries;
  t.flushed_lsn <- t.end_lsn;
  t.last_checkpoint <- Log_index.newest_checkpoint t;
  update_resident_gauge t

(* ---------- crash simulation and tail repair ---------- *)

(* The end-of-log fix-up after every tail drop: [e] is the new end, the
   unflushed tail is gone, the directory's running columns restart from
   what is left if the drop removed a control entry (else they still
   describe the newest one), and a master record past [e] falls back to
   the newest retained checkpoint. *)
let end_at t e =
  t.end_lsn <- e;
  if t.ctl_stale then Log_index.restore_running t;
  if Lsn.(t.flushed_lsn > e) then t.flushed_lsn <- e;
  t.unflushed_bytes <- 0;
  if Lsn.(t.last_checkpoint >= e) then t.last_checkpoint <- Log_index.newest_checkpoint t;
  update_resident_gauge t

let truncate_from t lsn =
  if Lsn.(lsn >= t.end_lsn) then 0
  else begin
    let dropped = drop_tail t (Lsn.to_int lsn) ~unindex:(Log_index.unindex_record t) in
    end_at t
      (Lsn.of_int
         (if t.seg_hi > t.seg_lo then t.segs.(t.seg_hi - 1).s_end
          else Lsn.to_int t.truncated_below));
    (* The dropped LSNs will be recycled by whoever appends next (the new
       primary's stream, re-shipped) — derived rewound state is void. *)
    t.invalidation_epoch <- t.invalidation_epoch + 1;
    dropped
  end

let crash t =
  (* A torn log tail: the OS may have pushed a prefix of the unflushed
     records to the platter before the crash, with the last of them torn
     mid-write.  The surviving prefix never reaches below [flushed_lsn],
     so every acknowledged commit is intact by construction — the tear is
     strictly in the never-acknowledged tail. *)
  let unflushed = ref [] in
  iter_from t ~from:t.flushed_lsn ~upto:t.end_lsn (fun s i ->
      unflushed := s.s_lsns.(i) :: !unflushed;
      true);
  let unflushed = Array.of_list (List.rev !unflushed) in
  let n = Array.length unflushed in
  let keep =
    match t.fault_plan with
    | Some plan when n > 0 && Fault_plan.tear_log_tail plan ->
        Fault_plan.torn_tail_keep plan ~len:n
    | _ -> 0
  in
  if keep < n then
    ignore (drop_tail t unflushed.(keep) ~unindex:(Log_index.unindex_record t) : int);
  let e =
    if keep > 0 then begin
      (* Tear the last survivor: recovery's CRC scan ([repair_tail]) will
         find the stump and truncate there. *)
      t.io.Io_stats.faults_injected <- t.io.Io_stats.faults_injected + 1;
      tear_last t ~unindex:(Log_index.unindex_record t) ~cut:(fun len ->
          Fault_plan.torn_record_cut (Option.get t.fault_plan) ~len)
    end
    else
      (* A retention cut above the durable horizon has already dropped
         the records between them: the log resumes at the cut, never
         below its own start. *)
      Lsn.max t.flushed_lsn t.truncated_below
  in
  t.flushed_lsn <- e;
  end_at t e;
  (* LSNs above the surviving tail will be recycled by post-restart
     appends; any rewound state derived from the pre-crash log is void. *)
  t.invalidation_epoch <- t.invalidation_epoch + 1

let repair_tail t =
  (* Recovery's torn-tail detector: validate record CRCs forward from the
     last durable checkpoint (a tear can only live in the crash-time tail,
     which is always above it) and truncate the log at the first record
     that fails.  WAL semantics: nothing after a tear can be trusted, even
     if its bytes happen to look whole.  CRCs are checked in place in the
     segment blobs — no record is extracted. *)
  let from =
    if Lsn.(t.last_checkpoint > Lsn.nil) then t.last_checkpoint else t.truncated_below
  in
  let scanned = ref 0 in
  let torn = ref None in
  iter_from t ~from ~upto:t.end_lsn (fun s i ->
      let len = rec_len s i in
      scanned := !scanned + len;
      Log_record.check_bytes s.s_blob ~pos:(rec_pos s i) ~len
      ||
      (torn := Some s.s_lsns.(i);
       false));
  Log_read.charge_seq t !scanned;
  match !torn with
  | None -> None
  | Some torn_i ->
      let torn_lsn = Lsn.of_int torn_i in
      let dropped = drop_tail t torn_i ~unindex:(Log_index.unindex_record t) in
      t.io.Io_stats.corruptions_detected <- t.io.Io_stats.corruptions_detected + 1;
      end_at t torn_lsn;
      Some (torn_lsn, dropped)

(* ---------- replication export / ingest ---------- *)

type export = {
  ex_from : Lsn.t;
  ex_next : Lsn.t;
  ex_sealed : bool;
  ex_entries : (Lsn.t * string) list;
}

let export_from t ~from =
  if Lsn.(from < t.truncated_below) then raise (Log_truncated from);
  (* The shipping unit is the rest of the segment holding [from]: a whole
     sealed-segment suffix, or the durable prefix of the active tail.  The
     crash-time tail (records at or above [flushed_lsn]) never ships —
     replicas replay committed-only, acknowledged history. *)
  let acc = ref [] and bytes = ref 0 and last = ref None in
  iter_from t ~from ~upto:t.flushed_lsn (fun s i ->
      match !last with
      | Some (s0, _) when s0 != s -> false
      | _ ->
          let data = rec_data s i in
          bytes := !bytes + String.length data;
          acc := (Lsn.of_int s.s_lsns.(i), data) :: !acc;
          last := Some (s, i);
          true);
  match !last with
  | None -> None
  | Some (s, i) ->
      (* Shipping reads the log back: one sequential scan of the exported
         region on the primary's log device. *)
      Log_read.charge_seq t !bytes;
      let entries = List.rev !acc in
      Some
        {
          ex_from = fst (List.hd entries);
          ex_next = Lsn.of_int (s.s_lsns.(i) + rec_len s i);
          ex_sealed = s.s_sealed && i = s.s_n - 1;
          ex_entries = entries;
        }

let segments_behind t ~from =
  (* Lag is measured against the durable horizon: the unflushed tail is
     not shippable (it could still be lost to a crash), so a replica that
     holds every flushed record is caught up even while the tail grows. *)
  if Lsn.(from >= t.flushed_lsn) then 0
  else match global_lower t from with None -> 0 | Some (si, _) -> t.seg_hi - si

let ingest_entries t entries =
  (* The bytes come from another process: their CRC is checked here, once,
     and a shipment with any bad record is refused whole, before anything
     is placed. *)
  if not (List.for_all (fun (_, data) -> Log_record.check data) entries) then
    raise Log_record.Corrupt_record;
  (match entries with
  | (first, _) :: _ when t.nrecords = 0 && Lsn.to_int t.end_lsn <= Lsn.to_int first ->
      adopt_origin t first
  | _ -> ());
  let applied = ref 0 in
  List.iter
    (fun (lsn, data) ->
      if Lsn.(lsn < t.end_lsn) then ()
        (* duplicate shipment (channel retry/dup fault): idempotent skip *)
      else begin
        if not (Lsn.equal lsn t.end_lsn) then
          invalid_arg "Log_manager.ingest_entries: gap in shipped records";
        let seg = place t data lsn in
        t.unflushed_bytes <- t.unflushed_bytes + String.length data;
        Log_read.touch_cache_on_append t lsn (String.length data);
        incr applied;
        if full t seg then seal_segment t seg
      end)
    entries;
  (* The replica persists its log copy before applying it — shipped
     records are durable on arrival, priced as one sequential write.
     The master record is NOT advanced here: the replica controls its
     recovery checkpoint explicitly (after flushing redone pages). *)
  if !applied > 0 then flush t ~upto:t.end_lsn else update_resident_gauge t;
  !applied
