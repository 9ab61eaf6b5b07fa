module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats

exception Log_truncated of Lsn.t
exception No_such_record of Lsn.t

(* Growable sorted array: one page's chain record LSNs, ascending. *)
type chain = { mutable arr : Lsn.t array; mutable len : int }

(* A segment's control-record directory: every Begin, Commit, Abort, End
   and Checkpoint record, ascending, as unboxed parallel arrays of LSN,
   txn id, kind code ([ctl_kinds]) and wall time (commits and checkpoints
   only, 0 otherwise).  These few records decide a SplitLSN and which
   transactions were in flight at it, so as-of snapshot creation reads
   them here and leaves the rest of the log unread. *)
type ctl_dir = {
  mutable c_n : int;
  mutable c_lsn : int array;
  mutable c_txn : int array;
  mutable c_kind : Bytes.t;
  mutable c_wall : Float.Array.t;
}

module Fault_plan = Rw_storage.Fault_plan
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

(* The log is a sequence of fixed-size segments (LevelDB-style sealed
   files).  The newest segment is the active tail: appends land in its
   blob, in RAM.  Once the tail reaches [segment_bytes] it is sealed —
   immutable from then on — and spilled: its payload is priced as one
   sequential write and stops counting against modeled resident memory.
   Reads of a spilled segment go through the same block cache as always;
   a block miss is the "reload from media" event.

   Everything per-record is segment-local: the sorted record-offset array
   that replaces the old global lsn->index Hashtbl (LSNs are byte
   offsets, so locating a record is a binary search over segments plus a
   binary search within one), and the FPI directory / page-chain index /
   control-record directory slices covering the segment's LSN range.  Retention
   can therefore drop a whole sealed segment in O(1), freeing its indexes
   wholesale, instead of filtering global tables record by record. *)
type segment = {
  s_base : int; (* absolute byte offset (= LSN) of the segment's first byte *)
  mutable s_end : int; (* one past the last record byte, absolute *)
  mutable s_n : int; (* record count *)
  mutable s_dead : int;
      (* records [0, s_dead) fell below the retention boundary while the
         segment straddled it; they stay physically present (the segment
         is immutable) but are invisible: every read path checks
         [truncated_below] first and the merged-view queries clamp. *)
  mutable s_lsns : int array; (* ascending record-start LSNs; length >= s_n *)
  mutable s_cached : Log_record.t Lru.Weighted.node option array;
      (* Parallel to [s_lsns]: slot handles into the decoded-record
         cache.  A hit is one pointer chase plus a liveness check. *)
  mutable s_blob : Bytes.t; (* encoded payloads, contiguous from s_base *)
  mutable s_sealed : bool;
  mutable s_resident : bool; (* payload still counted as modeled RAM *)
  s_fpi : (int, Lsn.t list ref) Hashtbl.t; (* page -> descending FPI lsns *)
  s_chains : (int, chain) Hashtbl.t; (* page -> ascending page-record lsns *)
  s_ctl : ctl_dir;
  mutable s_index_bytes : int;
      (* modeled footprint of this segment's index structures; freed
         wholesale when the segment is dropped *)
}

let mk_segment ~segment_bytes base =
  {
    s_base = base;
    s_end = base;
    s_n = 0;
    s_dead = 0;
    s_lsns = Array.make 64 0;
    s_cached = Array.make 64 None;
    (* Sized for the whole segment plus one page image of overshoot, so
       appends never regrow and copy it; only a record larger than that
       slack still doubles it. *)
    s_blob = Bytes.create (max segment_bytes 64 + Log_record.image_record_size);
    s_sealed = false;
    s_resident = true;
    s_fpi = Hashtbl.create 8;
    s_chains = Hashtbl.create 16;
    s_ctl =
      {
        c_n = 0;
        c_lsn = [||];
        c_txn = [||];
        c_kind = Bytes.empty;
        c_wall = Float.Array.create 0;
      };
    s_index_bytes = 0;
  }

(* Shared filler for vacated slots in the segment window; never inside
   [seg_lo, seg_hi) and never mutated. *)
let tombstone = mk_segment ~segment_bytes:64 0

(* Per-transaction summary accumulator for the append-time write-set
   index (what-if dependency graphs).  Mutable builder; the public
   [txn_summary] view is assembled on query. *)
type txn_acc = {
  a_txn : Txn_id.t;
  a_first : Lsn.t;
  mutable a_last_op : Lsn.t;
  mutable a_commit : Lsn.t;
  mutable a_wall : float;
  mutable a_aborted : bool;
  mutable a_ops : int;
  mutable a_clr : bool;
  mutable a_structural : bool;
  mutable a_writes_rev : (Page_id.t * Lsn.t) list; (* newest-first, first-write lsn per page *)
  a_pages : (int, unit) Hashtbl.t; (* pages already in a_writes_rev: O(1) membership *)
}

type t = {
  clock : Sim_clock.t;
  media : Media.t;
  io : Io_stats.t;
  fault_plan : Fault_plan.t option;
  segment_bytes : int; (* seal threshold *)
  mutable segs : segment array; (* live window [seg_lo, seg_hi); ascending *)
  mutable seg_lo : int;
  mutable seg_hi : int;
  mutable nrecords : int; (* retained (non-dead) record count *)
  mutable end_lsn : Lsn.t;
  mutable flushed_lsn : Lsn.t;
  mutable truncated_below : Lsn.t;
  cache : Lru.t;
  block_bytes : int;
  record_cache : Log_record.t Lru.Weighted.t;
      (* Decoded records keyed by LSN, weighed by encoded size.  Layered
         over the block cache: block accounting (and therefore simulated
         I/O cost) is identical whether or not a decode is skipped. *)
  mutable last_checkpoint : Lsn.t;
  mutable total_appended_bytes : int;
  mutable unflushed_bytes : int;
  mutable resident_payload : int; (* unspilled segment payload bytes *)
  mutable index_bytes : int; (* summed s_index_bytes of live segments *)
  mutable sealed_count : int; (* lifetime lifecycle counters *)
  mutable spilled_count : int;
  mutable loaded_count : int; (* cold block loads from spilled segments *)
  mutable dropped_count : int;
  mutable invalidation_epoch : int;
      (* Bumped whenever history is lost (truncation) or LSNs may be
         recycled (crash).  Derived caches of rewound state — e.g. the
         shared prepared-page cache — compare a stored epoch against this
         counter and lazily discard entries from older epochs; ordinary
         appends never bump it, because chain rewinds are deterministic
         over an append-only history. *)
  txn_index : (int, txn_acc) Hashtbl.t;
      (* Append-time per-transaction write-set summaries (unmodeled
         metadata, like the decoded-record cache).  Maintained on every
         ingestion path so dependency-graph construction never scans the
         log; events that drop tail records void it ([txn_index_valid])
         and the next query rebuilds it with one priced scan. *)
  mutable txn_index_valid : bool;
}

let create ~clock ~media ?(cache_blocks = 128) ?(block_bytes = 65536)
    ?(record_cache_bytes = 4 * 1024 * 1024) ?(segment_bytes = 1024 * 1024) ?fault_plan () =
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
    record_cache = Lru.Weighted.create ~capacity_bytes:record_cache_bytes;
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
    txn_index = Hashtbl.create 64;
    txn_index_valid = true;
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
let record_cache_bytes t = Lru.Weighted.size_bytes t.record_cache
let invalidation_epoch t = t.invalidation_epoch
let segment_count t = t.seg_hi - t.seg_lo
let segment_size t = t.segment_bytes
let resident_bytes t = t.resident_payload + t.index_bytes

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

let update_resident_gauge t =
  Obs.set Probes.log_resident_bytes (float_of_int (resident_bytes t))

(* ---------- segment-local primitives ---------- *)

let seg_used s = s.s_end - s.s_base

let rec_len s i = (if i + 1 < s.s_n then s.s_lsns.(i + 1) else s.s_end) - s.s_lsns.(i)
let rec_pos s i = s.s_lsns.(i) - s.s_base
let rec_data s i = Bytes.sub_string s.s_blob (rec_pos s i) (rec_len s i)
let rec_peek s i = Log_record.peek_bytes s.s_blob ~pos:(rec_pos s i) ~len:(rec_len s i)

(* First index below [n] whose value in the ascending array [a] is >= target. *)
let lower_bound (a : int array) n (target : int) =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

(* First record index in [s] with start LSN >= target. *)
let rec_lower s target = lower_bound s.s_lsns s.s_n target

let rec_find s li =
  let i = rec_lower s li in
  if i < s.s_n && s.s_lsns.(i) = li then Some i else None

(* Index (into [t.segs]) of the segment containing byte offset [li]. *)
let seg_find t li =
  if t.seg_hi = t.seg_lo then None
  else begin
    let lo = ref t.seg_lo and hi = ref t.seg_hi in
    (* first segment with s_end > li *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.segs.(mid).s_end <= li then lo := mid + 1 else hi := mid
    done;
    if !lo < t.seg_hi && t.segs.(!lo).s_base <= li then Some !lo else None
  end

let locate_opt t lsn =
  let li = Lsn.to_int lsn in
  match seg_find t li with
  | None -> None
  | Some si -> (
      match rec_find t.segs.(si) li with Some i -> Some (si, i) | None -> None)

let locate t lsn =
  if Lsn.(lsn < t.truncated_below) then raise (Log_truncated lsn);
  match locate_opt t lsn with Some x -> x | None -> raise (No_such_record lsn)

(* First record (across segments) with start LSN >= target, clamped at
   the retention boundary — the replacement for the old dense
   lower_bound over one flat array. *)
(* Index of the first live segment with s_end > [ti] ([seg_hi] if none). *)
let seg_lower t ti =
  let lo = ref t.seg_lo and hi = ref t.seg_hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.segs.(mid).s_end <= ti then lo := mid + 1 else hi := mid
  done;
  !lo

let global_lower t target =
  let ti = Lsn.to_int (Lsn.max target t.truncated_below) in
  let si = seg_lower t ti in
  if si >= t.seg_hi then None
  else begin
    let s = t.segs.(si) in
    let i = rec_lower s ti in
    if i < s.s_n then Some (si, i) else if si + 1 < t.seg_hi then Some (si + 1, 0) else None
  end

(* Position of the record preceding (si, i), skipping empty segments. *)
let pred_pos t (si, i) =
  if i > 0 then Some (si, i - 1)
  else begin
    let s = ref (si - 1) in
    while !s >= t.seg_lo && t.segs.(!s).s_n = 0 do
      decr s
    done;
    if !s >= t.seg_lo then Some (!s, t.segs.(!s).s_n - 1) else None
  end

(* ---------- segment window management ---------- *)

let push_seg t seg =
  if t.seg_hi = Array.length t.segs then begin
    let live = t.seg_hi - t.seg_lo in
    let cap = max 8 (2 * (live + 1)) in
    let a = Array.make cap tombstone in
    Array.blit t.segs t.seg_lo a 0 live;
    t.segs <- a;
    t.seg_lo <- 0;
    t.seg_hi <- live
  end;
  t.segs.(t.seg_hi) <- seg;
  t.seg_hi <- t.seg_hi + 1

let seal_segment t ?(priced = true) seg =
  seg.s_sealed <- true;
  (* Immutable from here on: shrink the working arrays to fit. *)
  if Array.length seg.s_lsns > seg.s_n then begin
    seg.s_lsns <- Array.sub seg.s_lsns 0 seg.s_n;
    seg.s_cached <- Array.sub seg.s_cached 0 seg.s_n
  end;
  let used = seg_used seg in
  if Bytes.length seg.s_blob > used then seg.s_blob <- Bytes.sub seg.s_blob 0 used;
  t.sealed_count <- t.sealed_count + 1;
  Obs.incr Probes.log_segments_sealed;
  (* Spill: the payload leaves modeled RAM, priced as the sequential
     write of the whole segment (the background writer pushing a sealed
     log file out).  Restore replays are offline and unpriced. *)
  if seg.s_resident then begin
    seg.s_resident <- false;
    t.resident_payload <- t.resident_payload - used;
    if priced then Media.seq_write t.media t.clock t.io used;
    t.spilled_count <- t.spilled_count + 1;
    Obs.incr Probes.log_segments_spilled
  end;
  update_resident_gauge t

let active_segment t =
  let need_new =
    t.seg_hi = t.seg_lo || t.segs.(t.seg_hi - 1).s_sealed
  in
  if need_new then push_seg t (mk_segment ~segment_bytes:t.segment_bytes (Lsn.to_int t.end_lsn));
  t.segs.(t.seg_hi - 1)

let ensure_blob seg need =
  let cap = Bytes.length seg.s_blob in
  if need > cap then begin
    let ncap = ref (max cap 64) in
    while !ncap < need do
      ncap := !ncap * 2
    done;
    let b = Bytes.create !ncap in
    Bytes.blit seg.s_blob 0 b 0 (seg_used seg);
    seg.s_blob <- b
  end

let ensure_slots seg =
  if seg.s_n = Array.length seg.s_lsns then begin
    let cap = max 64 (2 * seg.s_n) in
    let l = Array.make cap 0 in
    Array.blit seg.s_lsns 0 l 0 seg.s_n;
    seg.s_lsns <- l;
    let c = Array.make cap None in
    Array.blit seg.s_cached 0 c 0 seg.s_n;
    seg.s_cached <- c
  end

(* ---------- block-cache cost model (unchanged by segmentation) ---------- *)

let blocks_of t lsn len =
  let first = (Lsn.to_int lsn - 1) / t.block_bytes in
  let last = (Lsn.to_int lsn - 1 + max 0 (len - 1)) / t.block_bytes in
  (first, last)

let touch_cache_on_append t lsn len =
  let first, last = blocks_of t lsn len in
  for b = first to last do
    ignore (Lru.use t.cache b)
  done

(* A block miss against a spilled segment is the cold-reload event the
   [log.segments_loaded] probe counts; misses against the resident tail
   are the ordinary cache churn the model always had. *)
let charge_block_miss t seg =
  t.io.Io_stats.log_block_misses <- t.io.Io_stats.log_block_misses + 1;
  Media.random_read t.media t.clock t.io t.block_bytes;
  if not seg.s_resident then begin
    t.loaded_count <- t.loaded_count + 1;
    Obs.incr Probes.log_segments_loaded
  end

let charge_blocks t seg lsn len =
  let first, last = blocks_of t lsn len in
  for b = first to last do
    if Lru.use t.cache b then t.io.Io_stats.log_block_hits <- t.io.Io_stats.log_block_hits + 1
    else charge_block_miss t seg
  done

(* ---------- per-segment directory maintenance ---------- *)

let push_descending table key lsn =
  let l =
    match Hashtbl.find_opt table key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace table key l;
        l
  in
  l := lsn :: !l

(* A page's chain slice is a sorted array (appends arrive in LSN order),
   so [chain_segment] is binary searches plus [Array.sub] per touched
   segment — no list walk, no per-record allocation. *)
let chain_push tbl key lsn =
  let c =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c = { arr = Array.make 8 Lsn.nil; len = 0 } in
        Hashtbl.replace tbl key c;
        c
  in
  if c.len = Array.length c.arr then begin
    let bigger = Array.make (2 * c.len) Lsn.nil in
    Array.blit c.arr 0 bigger 0 c.len;
    c.arr <- bigger
  end;
  c.arr.(c.len) <- lsn;
  c.len <- c.len + 1

let chain_remove tbl key lsn =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some c ->
      (* Removals come from [crash], which discards newest-first, so the
         target is almost always the last element. *)
      let i = ref (c.len - 1) in
      while !i >= 0 && not (Lsn.equal c.arr.(!i) lsn) do
        decr i
      done;
      if !i >= 0 then begin
        Array.blit c.arr (!i + 1) c.arr !i (c.len - !i - 1);
        c.len <- c.len - 1
      end

(* First index in [c] with value > v (c sorted ascending). *)
let chain_upper c v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Lsn.(c.arr.(mid) <= v) then go (mid + 1) hi else go lo mid
  in
  go 0 c.len

let ctl_kinds =
  Log_record.[| K_begin; K_commit; K_abort; K_end; K_checkpoint |]

let ctl_code = function
  | Log_record.K_begin -> 0
  | Log_record.K_commit -> 1
  | Log_record.K_abort -> 2
  | Log_record.K_end -> 3
  | Log_record.K_checkpoint -> 4
  | Log_record.K_page_op _ | Log_record.K_clr _ -> invalid_arg "Log_manager.ctl_code: page record"

let ctl_push d lsn txn code wall =
  if d.c_n = Array.length d.c_lsn then begin
    let cap = max 16 (2 * d.c_n) in
    let grow a = Array.append a (Array.make (cap - d.c_n) 0) in
    d.c_lsn <- grow d.c_lsn;
    d.c_txn <- grow d.c_txn;
    d.c_kind <- Bytes.extend d.c_kind 0 (cap - d.c_n);
    let w = Float.Array.make cap 0.0 in
    Float.Array.blit d.c_wall 0 w 0 d.c_n;
    d.c_wall <- w
  end;
  d.c_lsn.(d.c_n) <- lsn;
  d.c_txn.(d.c_n) <- txn;
  Bytes.set_uint8 d.c_kind d.c_n code;
  Float.Array.set d.c_wall d.c_n wall;
  d.c_n <- d.c_n + 1

(* Removals come from the tail-drop paths, newest first, so the target is
   almost always the last entry. *)
let ctl_remove d lsn =
  let i = ref (d.c_n - 1) in
  while !i >= 0 && d.c_lsn.(!i) <> lsn do
    decr i
  done;
  if !i >= 0 then begin
    let j = !i and tail = d.c_n - !i - 1 in
    Array.blit d.c_lsn (j + 1) d.c_lsn j tail;
    Array.blit d.c_txn (j + 1) d.c_txn j tail;
    Bytes.blit d.c_kind (j + 1) d.c_kind j tail;
    Float.Array.blit d.c_wall (j + 1) d.c_wall j tail;
    d.c_n <- d.c_n - 1
  end

(* Modeled index footprint per entry: the record's offset + cache-handle
   slots, a chain array element, an FPI list cons, a control-directory
   entry (LSN, txn and wall slots plus a kind byte).  Coarse, but it
   moves with the structures it models and is freed exactly when they
   are. *)
let idx_record_bytes = 16
let idx_chain_bytes = 8
let idx_fpi_bytes = 24
let idx_ctl_bytes = 25

(* Directory maintenance from a header peek plus the record's wall time
   (commits and checkpoints) — shared by every ingestion path and by the
   tail drops, so none needs a payload decode to keep the indexes true. *)
let index_record t seg pk lsn ~wall =
  let add = ref idx_record_bytes in
  (match pk.Log_record.p_kind with
  | Log_record.K_page_op Log_record.K_full_image ->
      push_descending seg.s_fpi (Page_id.to_int pk.Log_record.p_page) lsn;
      add := !add + idx_fpi_bytes
  | Log_record.K_page_op _ | Log_record.K_clr _ -> ()
  | k ->
      ctl_push seg.s_ctl (Lsn.to_int lsn) (Txn_id.to_int pk.Log_record.p_txn) (ctl_code k) wall;
      add := !add + idx_ctl_bytes);
  if Log_record.is_page_kind pk.Log_record.p_kind then begin
    chain_push seg.s_chains (Page_id.to_int pk.Log_record.p_page) lsn;
    add := !add + idx_chain_bytes
  end;
  seg.s_index_bytes <- seg.s_index_bytes + !add;
  t.index_bytes <- t.index_bytes + !add

let unindex_record t seg pk lsn =
  let sub = ref idx_record_bytes in
  (match pk.Log_record.p_kind with
  | Log_record.K_page_op Log_record.K_full_image ->
      (match Hashtbl.find_opt seg.s_fpi (Page_id.to_int pk.Log_record.p_page) with
      | Some l -> l := List.filter (fun f -> not (Lsn.equal f lsn)) !l
      | None -> ());
      sub := !sub + idx_fpi_bytes
  | Log_record.K_page_op _ | Log_record.K_clr _ -> ()
  | _ ->
      ctl_remove seg.s_ctl (Lsn.to_int lsn);
      sub := !sub + idx_ctl_bytes);
  if Log_record.is_page_kind pk.Log_record.p_kind then begin
    chain_remove seg.s_chains (Page_id.to_int pk.Log_record.p_page) lsn;
    sub := !sub + idx_chain_bytes
  end;
  seg.s_index_bytes <- seg.s_index_bytes - !sub;
  t.index_bytes <- t.index_bytes - !sub

(* Txn write-set index maintenance from a header peek plus the commit
   record's wall time (the one field the header lacks). *)
let structural_op_kind = function
  | Log_record.K_set_header | Log_record.K_format | Log_record.K_preformat
  | Log_record.K_full_image ->
      true
  | Log_record.K_insert_row | Log_record.K_delete_row | Log_record.K_update_row -> false

let note_record t lsn pk ~wall =
  let txn = pk.Log_record.p_txn in
  if not (Txn_id.is_nil txn) then begin
    let key = Txn_id.to_int txn in
    let acc =
      match Hashtbl.find_opt t.txn_index key with
      | Some a -> a
      | None ->
          let a =
            {
              a_txn = txn;
              a_first = lsn;
              a_last_op = Lsn.nil;
              a_commit = Lsn.nil;
              a_wall = 0.0;
              a_aborted = false;
              a_ops = 0;
              a_clr = false;
              a_structural = false;
              a_writes_rev = [];
              a_pages = Hashtbl.create 8;
            }
          in
          Hashtbl.replace t.txn_index key a;
          a
    in
    match pk.Log_record.p_kind with
    | Log_record.K_commit ->
        acc.a_commit <- lsn;
        acc.a_wall <- wall
    | Log_record.K_abort -> acc.a_aborted <- true
    | Log_record.K_page_op k | Log_record.K_clr k ->
        acc.a_last_op <- lsn;
        acc.a_ops <- acc.a_ops + 1;
        (match pk.Log_record.p_kind with
        | Log_record.K_clr _ -> acc.a_clr <- true
        | _ -> ());
        if structural_op_kind k then acc.a_structural <- true;
        let page = pk.Log_record.p_page in
        let pkey = Page_id.to_int page in
        if not (Hashtbl.mem acc.a_pages pkey) then begin
          Hashtbl.replace acc.a_pages pkey ();
          acc.a_writes_rev <- (page, lsn) :: acc.a_writes_rev
        end
    | Log_record.K_begin | Log_record.K_end | Log_record.K_checkpoint -> ()
  end

(* Tail records were dropped (crash, torn-tail repair, replication
   divergence cut): the incremental summaries may describe records that no
   longer exist.  Void the index; the next query rebuilds it with one
   priced scan of the retained log. *)
let void_txn_index t =
  Hashtbl.reset t.txn_index;
  t.txn_index_valid <- false

(* ---------- append path ---------- *)

(* Physical placement shared by every append: reserve [len] bytes for
   the record at [lsn] in the active segment, payload unwritten.
   Amortized O(1) — the offset arrays grow by doubling within a bounded
   segment, the blob is allocated at its full size, and sealing touches
   each byte once. *)
let reserve t lsn len =
  let seg = active_segment t in
  ensure_blob seg (seg_used seg + len);
  ensure_slots seg;
  seg.s_lsns.(seg.s_n) <- Lsn.to_int lsn;
  seg.s_cached.(seg.s_n) <- None;
  seg.s_n <- seg.s_n + 1;
  seg.s_end <- Lsn.to_int lsn + len;
  t.nrecords <- t.nrecords + 1;
  t.end_lsn <- Lsn.of_int seg.s_end;
  t.total_appended_bytes <- t.total_appended_bytes + len;
  t.resident_payload <- t.resident_payload + len;
  seg

(* The upkeep of every append-time index — the segment directories and
   the txn write-set summaries — for the record just placed at [lsn],
   from its header peek and, for commits and checkpoints, the wall time
   read in place. *)
let index_placed t seg pk lsn =
  let wall =
    match pk.Log_record.p_kind with
    | Log_record.K_commit | Log_record.K_checkpoint ->
        Log_record.wall_bytes seg.s_blob ~pos:(Lsn.to_int lsn - seg.s_base)
    | _ -> 0.0
  in
  index_record t seg pk lsn ~wall;
  if t.txn_index_valid then note_record t lsn pk ~wall

(* The one ingestion step of [append], [restore_entries] and
   [ingest_entries]: place an encoded record and index it. *)
let place t data lsn =
  let len = String.length data in
  let seg = reserve t lsn len in
  Bytes.blit_string data 0 seg.s_blob (Lsn.to_int lsn - seg.s_base) len;
  index_placed t seg (Log_record.peek data) lsn;
  seg

(* The write-path accounting every new tail record pays. *)
let appended t seg lsn len =
  t.unflushed_bytes <- t.unflushed_bytes + len;
  touch_cache_on_append t lsn len;
  Obs.incr Probes.log_appends;
  Obs.add Probes.log_append_bytes len;
  if seg_used seg >= t.segment_bytes then seal_segment t seg
  else update_resident_gauge t

let append t record =
  let data = Log_record.encode record in
  let len = String.length data in
  let lsn = t.end_lsn in
  let seg = place t data lsn in
  (* The record object is in hand; seed the decoded cache so the first
     chain walk over fresh history never decodes. *)
  seg.s_cached.(seg.s_n - 1) <-
    Some (Lru.Weighted.add_node t.record_cache (Lsn.to_int lsn) ~weight:len record);
  appended t seg lsn len;
  lsn

(* A full page image, encoded straight into the segment blob: no record
   value, no intermediate string.  Nor is its decode cached — one image
   weighs as much as a hundred small chain records, which a rewind reads
   far more often. *)
let append_image t ~page ~prev_page_lsn image =
  let len = Log_record.image_record_size in
  let lsn = t.end_lsn in
  let seg = reserve t lsn len in
  let pos = Lsn.to_int lsn - seg.s_base in
  Log_record.encode_image_into seg.s_blob ~pos ~page ~prev_page_lsn image;
  index_placed t seg (Log_record.peek_bytes seg.s_blob ~pos ~len) lsn;
  appended t seg lsn len;
  lsn

let unflushed_bytes t = t.unflushed_bytes

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

(* ---------- record reads ---------- *)

(* Decode through the record cache; pure CPU layering, no I/O accounting.
   The hit path is the hot loop of every chain walk — one pointer chase
   through the segment's slot handle, no table lookup. *)
let decode_miss t seg i =
  t.io.Io_stats.log_record_misses <- t.io.Io_stats.log_record_misses + 1;
  let data = rec_data seg i in
  let r = Log_record.decode data in
  seg.s_cached.(i) <-
    Some
      (Lru.Weighted.add_node t.record_cache seg.s_lsns.(i) ~weight:(String.length data) r);
  r

let decode_cached t seg i =
  match seg.s_cached.(i) with
  | Some n when Lru.Weighted.alive n ->
      t.io.Io_stats.log_record_hits <- t.io.Io_stats.log_record_hits + 1;
      Lru.Weighted.touch t.record_cache n;
      Lru.Weighted.node_value n
  | _ -> decode_miss t seg i

(* Batch variant: a segment read is one logical access, so hits skip the
   per-record recency splice (the whole batch would land at the head of
   the LRU list anyway). *)
let decode_cached_quiet t seg i =
  match seg.s_cached.(i) with
  | Some n when Lru.Weighted.alive n ->
      t.io.Io_stats.log_record_hits <- t.io.Io_stats.log_record_hits + 1;
      Lru.Weighted.node_value n
  | _ -> decode_miss t seg i

(* Scan variant: reuse a live cached decode but never insert on a miss —
   a range scan over cold history would otherwise flush the hot chain
   entries out of the weighted LRU.  [append] seeds the cache with every
   record it encodes, so full-decode scans over fresh history are pure
   hits. *)
let decode_scan t seg i =
  match seg.s_cached.(i) with
  | Some n when Lru.Weighted.alive n ->
      t.io.Io_stats.log_record_hits <- t.io.Io_stats.log_record_hits + 1;
      Lru.Weighted.node_value n
  | _ -> Log_record.decode (rec_data seg i)

let read_nocost t lsn =
  let si, i = locate t lsn in
  decode_cached t t.segs.(si) i

let locate_charged t lsn =
  let si, i = locate t lsn in
  let seg = t.segs.(si) in
  charge_blocks t seg lsn (rec_len seg i);
  (seg, i)

let charge_read t lsn = ignore (locate_charged t lsn : segment * int)

let read t lsn =
  let seg, i = locate_charged t lsn in
  decode_cached t seg i

(* Visit an ascending LSN array's records in order, as [f k seg i] for
   the [k]th LSN.  Records are stored in ascending LSN order, so after the
   first binary search each record is located by advancing a (segment,
   record) finger — the searches are only repeated across a long gap of
   other pages' records.  Same exceptions as {!read}. *)
let iter_ascending t lsns f =
  if Array.length lsns > 0 then begin
    let si = ref 0 and ri = ref 0 in
    let set_pos lsn =
      let s, i = locate t lsn in
      si := s;
      ri := i
    in
    set_pos lsns.(0);
    Array.iteri
      (fun k lsn ->
        let li = Lsn.to_int lsn in
        let rec advance fuel =
          if !si >= t.seg_hi then set_pos lsn
          else begin
            let s = t.segs.(!si) in
            if !ri >= s.s_n then
              if !si + 1 < t.seg_hi then begin
                incr si;
                ri := 0;
                advance fuel
              end
              else set_pos lsn
            else if s.s_lsns.(!ri) = li then ()
            else if fuel = 0 || s.s_lsns.(!ri) > li then set_pos lsn
            else begin
              incr ri;
              advance (fuel - 1)
            end
          end
        in
        advance 32;
        let i = !ri in
        ri := i + 1;
        f k t.segs.(!si) i)
      lsns
  end

let not_cached = Log_record.make Log_record.End

(* Batched random read of an ascending LSN array.  Block accounting is the
   same as issuing [read] per record — each distinct block is a hit or one
   priced random read — but charged once per block instead of once per
   record, and the decodes go through the segment slot handles. *)
let read_segment t lsns =
  let out = Array.make (Array.length lsns) not_cached in
  let last_block = ref (-1) in
  (* Byte position already covered by the charged blocks; records that
     end at or before it need no block arithmetic at all. *)
  let charged_upto = ref 0 in
  iter_ascending t lsns (fun k s i ->
      let lsn = s.s_lsns.(i) in
      let len = rec_len s i in
      if lsn + len - 1 > !charged_upto then begin
        let first_b, last_b = blocks_of t (Lsn.of_int lsn) len in
        for b = max first_b (!last_block + 1) to last_b do
          if Lru.use t.cache b then t.io.Io_stats.log_block_hits <- t.io.Io_stats.log_block_hits + 1
          else charge_block_miss t s
        done;
        if last_b > !last_block then begin
          last_block := last_b;
          charged_upto := ((last_b + 1) * t.block_bytes) - 1
        end
      end;
      out.(k) <- decode_cached_quiet t s i);
  out

type gathered = {
  g_decoded : Log_record.t array;
  g_blob : Bytes.t array;
  g_pos : int array;
  g_len : int array;
}

type batch = { b_pages : gathered option array; b_windows_us : float array }

(* Step 1 of [gather_batch] for one page: locate each record and hand it
   back as its live decode (a record-cache hit) or, on a miss, as its
   bytes where they sit in the segment blob — no copy, no decode, no cache
   insert.  A rewind reads each record once, so inserting its decode would
   only churn the cache.  The result is parallel arrays rather than one
   box per record: a long chain's array lives in the major heap, and
   storing a fresh box per record into it would promote every box.  The
   blocks each record spans are reported through [need first last cold]
   (consecutive records inside an already-reported block skip it); no
   block is charged here. *)
let gather_page t lsns need =
  let n = Array.length lsns in
  let g_decoded = Array.make n not_cached in
  (* The span arrays are only needed once some record misses. *)
  let spans = ref None in
  let covered = ref 0 in
  iter_ascending t lsns (fun k s i ->
      let li = s.s_lsns.(i) in
      let len = rec_len s i in
      if li + len - 1 > !covered then begin
        let first_b, last_b = blocks_of t (Lsn.of_int li) len in
        need first_b last_b (not s.s_resident);
        covered := (last_b + 1) * t.block_bytes
      end;
      match s.s_cached.(i) with
      | Some node when Lru.Weighted.alive node ->
          t.io.Io_stats.log_record_hits <- t.io.Io_stats.log_record_hits + 1;
          g_decoded.(k) <- Lru.Weighted.node_value node
      | _ ->
          t.io.Io_stats.log_record_misses <- t.io.Io_stats.log_record_misses + 1;
          let blob, pos, len' =
            match !spans with
            | Some sp -> sp
            | None ->
                let sp = (Array.make n Bytes.empty, Array.make n 0, Array.make n 0) in
                spans := Some sp;
                sp
          in
          blob.(k) <- s.s_blob;
          pos.(k) <- rec_pos s i;
          len'.(k) <- len);
  let g_blob, g_pos, g_len = Option.value !spans ~default:([||], [||], [||]) in
  { g_decoded; g_blob; g_pos; g_len }

(* The rewind fetch for a whole batch of pages, in log order: locate every
   page's records (step 1), mark every block the batch needs in a bitmap
   over the batch's block span (step 2), then charge each marked block
   once, ascending (step 3).  A marked block still cached is a hit; a
   maximal run of consecutive missing blocks is one seek plus sequential
   transfer, capped at the cache capacity so a window never evicts its
   own head before it is read.  Different pages' records share blocks: a
   block two interleaved chains both touch is charged once for the batch,
   not once per page.  A page that fails to locate a record gets [None];
   the blocks it had already reported are still charged. *)
let gather_batch t reqs =
  (* Step 1's block reports, as (first, last, cold) triples. *)
  let ranges = ref (Array.make 48 0) and nr = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  let need first last cold =
    if !nr + 3 > Array.length !ranges then begin
      let bigger = Array.make (2 * Array.length !ranges) 0 in
      Array.blit !ranges 0 bigger 0 !nr;
      ranges := bigger
    end;
    let r = !ranges in
    r.(!nr) <- first;
    r.(!nr + 1) <- last;
    r.(!nr + 2) <- Bool.to_int cold;
    nr := !nr + 3;
    lo := min !lo first;
    hi := max !hi last
  in
  let b_pages =
    Array.map
      (fun lsns ->
        match gather_page t lsns need with
        | g -> Some g
        | exception (Log_truncated _ | No_such_record _) -> None)
      reqs
  in
  let windows = ref [] in
  if !nr > 0 then begin
    let r = !ranges and lo = !lo in
    (* 0: not needed; 1: needed; 2: needed, and serves a spilled segment
       (a boundary block shared with a resident one counts as cold). *)
    let marks = Bytes.make (!hi - lo + 1) '\000' in
    for j = 0 to (!nr / 3) - 1 do
      let m = Char.chr (1 + r.((3 * j) + 2)) in
      for b = r.(3 * j) - lo to r.((3 * j) + 1) - lo do
        if Bytes.unsafe_get marks b < m then Bytes.unsafe_set marks b m
      done
    done;
    let miss b ~seq =
      t.io.Io_stats.log_block_misses <- t.io.Io_stats.log_block_misses + 1;
      if seq then Media.seq_read t.media t.clock t.io t.block_bytes
      else Media.random_read t.media t.clock t.io t.block_bytes;
      if Bytes.get marks b = '\002' then begin
        t.loaded_count <- t.loaded_count + 1;
        Obs.incr Probes.log_segments_loaded
      end
    in
    let cap = Lru.capacity t.cache in
    let span = Bytes.length marks in
    let b = ref 0 in
    while !b < span do
      if Bytes.get marks !b = '\000' then incr b
      else if Lru.use t.cache (lo + !b) then begin
        t.io.Io_stats.log_block_hits <- t.io.Io_stats.log_block_hits + 1;
        incr b
      end
      else begin
        let t0 = Sim_clock.now_us t.clock in
        miss !b ~seq:false;
        incr b;
        let run = ref 1 in
        while
          !run < cap && !b < span
          && Bytes.get marks !b <> '\000'
          && not (Lru.mem t.cache (lo + !b))
        do
          ignore (Lru.use t.cache (lo + !b));
          miss !b ~seq:true;
          incr b;
          incr run
        done;
        windows := (Sim_clock.now_us t.clock -. t0) :: !windows
      end
    done
  end;
  { b_pages; b_windows_us = Array.of_list (List.rev !windows) }

let peek_record t lsn =
  let si, i = locate t lsn in
  rec_peek t.segs.(si) i

let mem t lsn =
  Lsn.(lsn >= t.truncated_below) && match locate_opt t lsn with Some _ -> true | None -> false

let next_lsn_after t lsn =
  let si, i = locate t lsn in
  Lsn.of_int (Lsn.to_int lsn + rec_len t.segs.(si) i)

(* ---------- range scans ---------- *)

(* Scans are priced sequentially, per record as it is visited, so an
   early-exit scan only pays for the region it actually read. *)
let charge_seq t bytes = Media.seq_read t.media t.clock t.io bytes

(* Drive [f seg i lsn] over records in [start_pos, upto), ascending,
   crossing segment boundaries. *)
let iter_from t start_pos ~upto f =
  match start_pos with
  | None -> ()
  | Some (si0, i0) ->
      let upto_i = Lsn.to_int upto in
      let si = ref si0 and i = ref i0 in
      let continue = ref true in
      while !continue && !si < t.seg_hi do
        let s = t.segs.(!si) in
        if !i >= s.s_n then begin
          incr si;
          i := 0
        end
        else if s.s_lsns.(!i) >= upto_i then continue := false
        else begin
          f s !i (Lsn.of_int s.s_lsns.(!i));
          incr i
        end
      done

let iter_range t ~from ~upto f =
  iter_from t (global_lower t from) ~upto (fun s i lsn ->
      charge_seq t (rec_len s i);
      f lsn (decode_scan t s i))

let iter_range_peek t ~from ~upto f =
  iter_from t (global_lower t from) ~upto (fun s i lsn ->
      charge_seq t (rec_len s i);
      f lsn (rec_peek s i) (fun () -> decode_cached t s i))

(* Raw variant for consumers that ship the encoded bytes elsewhere to
   decode (domain-parallel redo): same order and pricing as
   [iter_range_peek], but the thunk copies the encoded record out instead
   of decoding it, so the (single-domain) record cache is not involved. *)
let iter_range_raw t ~from ~upto f =
  iter_from t (global_lower t from) ~upto (fun s i lsn ->
      charge_seq t (rec_len s i);
      f lsn (rec_peek s i) (fun () -> rec_data s i))

let iter_range_rev t ~from ~upto f =
  let from_i = Lsn.to_int (Lsn.max from t.truncated_below) in
  let start =
    match global_lower t upto with
    | Some pos -> pred_pos t pos
    | None ->
        (* nothing at or above [upto]: start from the newest record *)
        if t.seg_hi > t.seg_lo then pred_pos t (t.seg_hi - 1, t.segs.(t.seg_hi - 1).s_n)
        else None
  in
  let pos = ref start in
  let continue = ref true in
  while !continue do
    match !pos with
    | None -> continue := false
    | Some (si, i) ->
        let s = t.segs.(si) in
        let li = s.s_lsns.(i) in
        if li < from_i then continue := false
        else begin
          charge_seq t (rec_len s i);
          f (Lsn.of_int li) (decode_scan t s i);
          pos := pred_pos t (si, i)
        end
  done

let charge_scan t ~from ~upto =
  let lo = Lsn.max from t.truncated_below in
  let hi = Lsn.min upto t.end_lsn in
  let bytes = max 0 (Lsn.to_int hi - Lsn.to_int lo) in
  charge_seq t bytes

(* ---------- merged directory views ---------- *)

(* The directory walk: retained control records from [from] on,
   ascending, until [f] answers [false].  Entries below the retention
   boundary (a straddling segment's dead prefix) are skipped. *)
let iter_controls t ~from f =
  let lo = Lsn.to_int (Lsn.max from t.truncated_below) in
  let si = ref (seg_lower t lo) in
  let go = ref true in
  while !go && !si < t.seg_hi do
    let d = t.segs.(!si).s_ctl in
    let i = ref (lower_bound d.c_lsn d.c_n lo) in
    while !go && !i < d.c_n do
      go :=
        f
          (Lsn.of_int d.c_lsn.(!i))
          ctl_kinds.(Bytes.get_uint8 d.c_kind !i)
          (Txn_id.of_int d.c_txn.(!i))
          (Float.Array.get d.c_wall !i);
      incr i
    done;
    incr si
  done

let checkpoint_code = ctl_code Log_record.K_checkpoint

(* Newest first; a straddling segment's dead prefix ends the walk, as
   every older segment has been dropped. *)
let iter_checkpoints_rev t f =
  let tb = Lsn.to_int t.truncated_below in
  let si = ref (t.seg_hi - 1) and go = ref true in
  while !go && !si >= t.seg_lo do
    let d = t.segs.(!si).s_ctl in
    let i = ref (d.c_n - 1) in
    while !go && !i >= 0 && d.c_lsn.(!i) >= tb do
      if Bytes.get_uint8 d.c_kind !i = checkpoint_code then
        go := f (Lsn.of_int d.c_lsn.(!i)) (Float.Array.get d.c_wall !i);
      decr i
    done;
    decr si
  done

let checkpoint_walls t =
  let res = ref [] in
  iter_checkpoints_rev t (fun lsn wall ->
      res := (lsn, wall) :: !res;
      true);
  List.rev !res

let checkpoints_before t lsn =
  List.filter_map (fun (c, _) -> if Lsn.(c <= lsn) then Some c else None) (checkpoint_walls t)

(* Newest retained checkpoint, for the crash/repair fallback of
   [last_checkpoint]. *)
let newest_checkpoint t =
  let res = ref Lsn.nil in
  iter_checkpoints_rev t (fun lsn _ ->
      res := lsn;
      false);
  !res

let earliest_fpi_after t page ~after =
  let pid = Page_id.to_int page in
  let ai = Lsn.to_int after in
  let res = ref None in
  let si = ref t.seg_lo in
  (* Oldest-first: the first segment holding a qualifying FPI holds the
     earliest one. *)
  while !res = None && !si < t.seg_hi do
    let s = t.segs.(!si) in
    if s.s_end > ai + 1 then begin
      match Hashtbl.find_opt s.s_fpi pid with
      | None -> ()
      | Some l ->
          (* The list is descending; the earliest FPI still > after is the
             last element before we cross the boundary. *)
          let rec go best = function
            | [] -> best
            | lsn :: rest ->
                if Lsn.(lsn > after) && Lsn.(lsn >= t.truncated_below) then go (Some lsn) rest
                else best
          in
          res := go None !l
    end;
    incr si
  done;
  !res

let empty_segment : Lsn.t array = [||]

let chain_segment t page ~from ~down_to =
  let pid = Page_id.to_int page in
  (* Clamp at the retention boundary: a straddling segment keeps its dead
     prefix physically, so the boundary must be enforced here rather than
     by eager pruning.  [chain_upper] is strict-greater, so the clamp
     value is one below the first retained LSN. *)
  let dt = Lsn.of_int (max (Lsn.to_int down_to) (Lsn.to_int t.truncated_below - 1)) in
  let from_i = Lsn.to_int from in
  if Lsn.(from <= dt) then empty_segment
  else begin
    let slices = ref [] in
    (* (arr, lo, n), newest first *)
    let total = ref 0 in
    for si = t.seg_lo to t.seg_hi - 1 do
      let s = t.segs.(si) in
      if s.s_end > Lsn.to_int dt + 1 && s.s_base <= from_i then
        match Hashtbl.find_opt s.s_chains pid with
        | None -> ()
        | Some c ->
            let lo = chain_upper c dt in
            let hi = chain_upper c from in
            if hi > lo then begin
              slices := (c.arr, lo, hi - lo) :: !slices;
              total := !total + (hi - lo)
            end
    done;
    match !slices with
    | [] -> empty_segment
    | [ (arr, lo, n) ] -> Array.sub arr lo n
    | l ->
        let out = Array.make !total Lsn.nil in
        let pos = ref !total in
        List.iter
          (fun (arr, lo, n) ->
            pos := !pos - n;
            Array.blit arr lo out !pos n)
          l;
        out
  end

let pages_changed_since t ~since =
  let acc = Hashtbl.create 64 in
  let tb = Lsn.to_int t.truncated_below in
  for si = t.seg_lo to t.seg_hi - 1 do
    let s = t.segs.(si) in
    if s.s_end > Lsn.to_int since + 1 then
      Hashtbl.iter
        (fun page c ->
          if
            c.len > 0
            && Lsn.(c.arr.(c.len - 1) > since)
            && Lsn.to_int c.arr.(c.len - 1) >= tb
          then Hashtbl.replace acc page ())
        s.s_chains
  done;
  Hashtbl.fold (fun p () l -> Page_id.of_int p :: l) acc []

(* ---------- truncation (retention) ---------- *)

let drop_record_cache_entry t seg i =
  (match seg.s_cached.(i) with
  | Some n when Lru.Weighted.alive n -> Lru.Weighted.remove t.record_cache seg.s_lsns.(i)
  | _ -> ());
  seg.s_cached.(i) <- None

(* Drop a whole segment: its record-cache slots are released and its
   index tables become garbage in one step — this is what makes
   retention O(1) per segment instead of O(records). *)
let drop_segment t ~counted seg =
  for i = seg.s_dead to seg.s_n - 1 do
    drop_record_cache_entry t seg i
  done;
  if seg.s_resident then t.resident_payload <- t.resident_payload - seg_used seg;
  t.index_bytes <- t.index_bytes - seg.s_index_bytes;
  t.nrecords <- t.nrecords - (seg.s_n - seg.s_dead);
  if counted then begin
    t.dropped_count <- t.dropped_count + 1;
    Obs.incr Probes.log_segments_dropped
  end

let truncate_before t lsn =
  if Lsn.(lsn > t.truncated_below) then begin
    let li = Lsn.to_int lsn in
    (* Whole sealed segments below the cut go wholesale. *)
    while t.seg_lo < t.seg_hi && t.segs.(t.seg_lo).s_end <= li do
      drop_segment t ~counted:true t.segs.(t.seg_lo);
      t.segs.(t.seg_lo) <- tombstone;
      t.seg_lo <- t.seg_lo + 1
    done;
    t.truncated_below <- lsn;
    (* The straddling segment (if any) keeps its dead prefix physically —
       it is immutable — but the prefix's record-cache slots are released
       and the records leave the retained count.  The block cache needs no
       invalidation: membership is a cost-model artifact, and a dropped
       LSN can never be served from it because every read path checks
       [truncated_below] before touching a block. *)
    if t.seg_lo < t.seg_hi then begin
      let s = t.segs.(t.seg_lo) in
      if s.s_base < li then begin
        let dead = rec_lower s li in
        if dead > s.s_dead then begin
          for i = s.s_dead to dead - 1 do
            drop_record_cache_entry t s i
          done;
          t.nrecords <- t.nrecords - (dead - s.s_dead);
          s.s_dead <- dead
        end
      end
    end;
    t.invalidation_epoch <- t.invalidation_epoch + 1;
    (* Txn summaries whose first record fell below the boundary can no
       longer be rewound or replayed; drop them wholesale. *)
    let dead =
      Hashtbl.fold
        (fun key acc dead -> if Lsn.(acc.a_first < lsn) then key :: dead else dead)
        t.txn_index []
    in
    List.iter (Hashtbl.remove t.txn_index) dead;
    update_resident_gauge t
  end

(* ---------- persistence ---------- *)

let dump_entries t =
  let acc = ref [] in
  for si = t.seg_hi - 1 downto t.seg_lo do
    let s = t.segs.(si) in
    for i = s.s_n - 1 downto s.s_dead do
      acc := (Lsn.of_int s.s_lsns.(i), rec_data s i) :: !acc
    done
  done;
  !acc

let restore_entries t entries =
  if t.nrecords > 0 || Lsn.to_int t.end_lsn > 1 then
    invalid_arg "Log_manager.restore_entries: log not empty";
  (match entries with
  | [] -> ()
  | (first, _) :: _ ->
      t.truncated_below <- first;
      t.flushed_lsn <- first;
      t.end_lsn <- first);
  List.iter
    (fun (lsn, data) ->
      if not (Lsn.equal lsn t.end_lsn) then
        invalid_arg "Log_manager.restore_entries: non-contiguous entries";
      let seg = place t data lsn in
      (* Replay sealing so a restored log has the same segment shape as
         the one that was dumped — but unpriced: persistence is an
         offline operation. *)
      if seg_used seg >= t.segment_bytes then seal_segment t ~priced:false seg)
    entries;
  t.flushed_lsn <- t.end_lsn;
  t.last_checkpoint <- newest_checkpoint t;
  update_resident_gauge t

(* ---------- crash simulation and tail repair ---------- *)

(* Remove the newest record; pops the tail segment once it has no live
   records left. *)
let remove_last t =
  let si = t.seg_hi - 1 in
  let s = t.segs.(si) in
  let i = s.s_n - 1 in
  let li = s.s_lsns.(i) in
  let len = rec_len s i in
  Lru.Weighted.remove t.record_cache li;
  (try unindex_record t s (rec_peek s i) (Lsn.of_int li) with _ -> ());
  s.s_cached.(i) <- None;
  s.s_n <- i;
  s.s_end <- li;
  if s.s_resident then t.resident_payload <- t.resident_payload - len;
  t.nrecords <- t.nrecords - 1;
  if s.s_n <= s.s_dead then begin
    (* No live records left in the tail segment; its dead prefix (if any)
       already left the retained count at truncation time. *)
    t.index_bytes <- t.index_bytes - s.s_index_bytes;
    t.segs.(si) <- tombstone;
    t.seg_hi <- si
  end

(* Records (across segments) with start LSN >= target. *)
let records_from t target =
  match global_lower t target with
  | None -> 0
  | Some (si, i) ->
      let n = ref (t.segs.(si).s_n - i) in
      for s = si + 1 to t.seg_hi - 1 do
        n := !n + t.segs.(s).s_n
      done;
      !n

(* Drop every record with start LSN >= [ti] off the newest end of the
   log: whole segments above the cut go wholesale (indexes freed per
   segment), the straddler sheds records one by one.  Shared by
   [repair_tail] (cut = first torn record) and [truncate_from] (cut =
   replication divergence point).  Callers fix up [end_lsn]/
   [flushed_lsn]/[last_checkpoint] afterwards. *)
let drop_tail_records t ti =
  let dropped = ref 0 in
  while t.seg_hi > t.seg_lo && t.segs.(t.seg_hi - 1).s_base >= ti do
    let s = t.segs.(t.seg_hi - 1) in
    dropped := !dropped + (s.s_n - s.s_dead);
    drop_segment t ~counted:false s;
    t.segs.(t.seg_hi - 1) <- tombstone;
    t.seg_hi <- t.seg_hi - 1
  done;
  while
    t.seg_hi > t.seg_lo
    &&
    let s = t.segs.(t.seg_hi - 1) in
    s.s_n > s.s_dead && s.s_lsns.(s.s_n - 1) >= ti
  do
    remove_last t;
    incr dropped
  done;
  !dropped

let truncate_from t lsn =
  if Lsn.(lsn >= t.end_lsn) then 0
  else begin
    let dropped = drop_tail_records t (Lsn.to_int lsn) in
    let phys_end =
      if t.seg_hi > t.seg_lo then t.segs.(t.seg_hi - 1).s_end
      else Lsn.to_int t.truncated_below
    in
    t.end_lsn <- Lsn.of_int phys_end;
    if Lsn.(t.flushed_lsn > t.end_lsn) then t.flushed_lsn <- t.end_lsn;
    t.unflushed_bytes <- 0;
    if Lsn.(t.last_checkpoint >= t.end_lsn) then t.last_checkpoint <- newest_checkpoint t;
    (* The dropped LSNs will be recycled by whoever appends next (the new
       primary's stream, re-shipped) — derived rewound state is void. *)
    t.invalidation_epoch <- t.invalidation_epoch + 1;
    void_txn_index t;
    update_resident_gauge t;
    dropped
  end

let crash t =
  (* A torn log tail: the OS may have pushed a prefix of the unflushed
     records to the platter before the crash, with the last of them torn
     mid-write.  The surviving prefix never reaches below [flushed_lsn],
     so every acknowledged commit is intact by construction — the tear is
     strictly in the never-acknowledged tail. *)
  let unflushed_records = records_from t t.flushed_lsn in
  let keep =
    match t.fault_plan with
    | Some plan when unflushed_records > 0 && Fault_plan.tear_log_tail plan ->
        Fault_plan.torn_tail_keep plan ~len:unflushed_records
    | _ -> 0
  in
  for _ = 1 to unflushed_records - keep do
    remove_last t
  done;
  if keep > 0 then begin
    (* Tear the last survivor: only a prefix of its bytes hit the disk.
       Unindex it while its header is still intact; recovery's CRC scan
       ([repair_tail]) will find the stump and truncate there.  The stump
       stays listed in its segment — [s_end] just stops short, exactly as
       a torn file would. *)
    let s = t.segs.(t.seg_hi - 1) in
    let i = s.s_n - 1 in
    let li = s.s_lsns.(i) in
    let len = rec_len s i in
    let cut = Fault_plan.torn_record_cut (Option.get t.fault_plan) ~len in
    Lru.Weighted.remove t.record_cache li;
    (try unindex_record t s (rec_peek s i) (Lsn.of_int li) with _ -> ());
    s.s_cached.(i) <- None;
    s.s_end <- li + cut;
    if s.s_resident then t.resident_payload <- t.resident_payload - (len - cut);
    t.end_lsn <- Lsn.of_int (li + cut);
    t.io.Io_stats.faults_injected <- t.io.Io_stats.faults_injected + 1
  end
  else t.end_lsn <- t.flushed_lsn;
  t.flushed_lsn <- t.end_lsn;
  t.unflushed_bytes <- 0;
  if Lsn.(t.last_checkpoint >= t.end_lsn) then t.last_checkpoint <- newest_checkpoint t;
  (* LSNs above the surviving tail will be recycled by post-restart
     appends; any rewound state derived from the pre-crash log is void. *)
  t.invalidation_epoch <- t.invalidation_epoch + 1;
  void_txn_index t;
  update_resident_gauge t

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
  let pos = ref (global_lower t from) in
  let continue = ref true in
  while !continue do
    match !pos with
    | None -> continue := false
    | Some (si, i) ->
        let s = t.segs.(si) in
        if i >= s.s_n then pos := (if si + 1 < t.seg_hi then Some (si + 1, 0) else None)
        else begin
          let len = rec_len s i in
          scanned := !scanned + len;
          if Log_record.check_bytes s.s_blob ~pos:(rec_pos s i) ~len then pos := Some (si, i + 1)
          else begin
            torn := Some s.s_lsns.(i);
            continue := false
          end
        end
  done;
  charge_seq t !scanned;
  match !torn with
  | None -> None
  | Some torn_i ->
      let torn_lsn = Lsn.of_int torn_i in
      let dropped = drop_tail_records t torn_i in
      t.end_lsn <- torn_lsn;
      if Lsn.(t.flushed_lsn > torn_lsn) then t.flushed_lsn <- torn_lsn;
      t.unflushed_bytes <- 0;
      if Lsn.(t.last_checkpoint >= torn_lsn) then t.last_checkpoint <- newest_checkpoint t;
      t.io.Io_stats.corruptions_detected <- t.io.Io_stats.corruptions_detected + 1;
      void_txn_index t;
      update_resident_gauge t;
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
  if Lsn.(from >= t.flushed_lsn) then None
  else
    match global_lower t from with
    | None -> None
    | Some (si, i0) ->
        let s = t.segs.(si) in
        let fl = Lsn.to_int t.flushed_lsn in
        (* The shipping unit is the rest of the segment holding [from]:
           a whole sealed-segment suffix, or the durable prefix of the
           active tail.  The crash-time tail (records at or above
           [flushed_lsn]) never ships — replicas replay committed-only,
           acknowledged history. *)
        let stop = ref i0 in
        while !stop < s.s_n && s.s_lsns.(!stop) < fl do
          incr stop
        done;
        if !stop = i0 then None
        else begin
          let acc = ref [] in
          let bytes = ref 0 in
          for j = !stop - 1 downto i0 do
            let data = rec_data s j in
            bytes := !bytes + String.length data;
            acc := (Lsn.of_int s.s_lsns.(j), data) :: !acc
          done;
          (* Shipping reads the log back: one sequential scan of the
             exported region on the primary's log device. *)
          charge_seq t !bytes;
          let next =
            if !stop < s.s_n then Lsn.of_int s.s_lsns.(!stop) else Lsn.of_int s.s_end
          in
          Some
            {
              ex_from = Lsn.of_int s.s_lsns.(i0);
              ex_next = next;
              ex_sealed = s.s_sealed && !stop = s.s_n;
              ex_entries = !acc;
            }
        end

let segments_behind t ~from =
  (* Lag is measured against the durable horizon: the unflushed tail is
     not shippable (it could still be lost to a crash), so a replica that
     holds every flushed record is caught up even while the tail grows. *)
  if Lsn.(from >= t.flushed_lsn) then 0
  else match global_lower t from with None -> 0 | Some (si, _) -> t.seg_hi - si

let ingest_entries t entries =
  (match entries with
  | (first, _) :: _ when t.nrecords = 0 && Lsn.to_int t.end_lsn <= Lsn.to_int first ->
      (* First shipment into a fresh log: adopt the primary's origin,
         exactly as [restore_entries] does for a persisted dump. *)
      t.truncated_below <- first;
      t.flushed_lsn <- first;
      t.end_lsn <- first
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
        touch_cache_on_append t lsn (String.length data);
        incr applied;
        if seg_used seg >= t.segment_bytes then seal_segment t seg
      end)
    entries;
  (* The replica persists its log copy before applying it — shipped
     records are durable on arrival, priced as one sequential write.
     The master record is NOT advanced here: the replica controls its
     recovery checkpoint explicitly (after flushing redone pages). *)
  if !applied > 0 then flush t ~upto:t.end_lsn else update_resident_gauge t;
  !applied

(* ---------- txn write-set summaries (what-if dependency graphs) ---------- *)

type txn_summary = {
  ts_txn : Txn_id.t;
  ts_first_lsn : Lsn.t;
  ts_last_lsn : Lsn.t;
  ts_commit_lsn : Lsn.t;
  ts_commit_wall_us : float;
  ts_ops : int;
  ts_has_clr : bool;
  ts_structural : bool;
  ts_writes : (Page_id.t * Lsn.t) list;
}

let txn_index_live t = t.txn_index_valid

let rebuild_txn_index t =
  Hashtbl.reset t.txn_index;
  t.txn_index_valid <- false;
  (* A transaction whose first retained record carries a non-nil backward
     pointer continues below the retention boundary: its truncated prefix
     would leave the rebuilt summary's write set understated, so such
     accumulators are dropped after the scan — the same rule
     [truncate_before] applies incrementally (a_first < boundary). *)
  let straddlers = Hashtbl.create 8 in
  (try
     iter_range_peek t ~from:t.truncated_below ~upto:t.end_lsn (fun lsn pk decode ->
         let txn = pk.Log_record.p_txn in
         if
           (not (Txn_id.is_nil txn))
           && (not (Hashtbl.mem t.txn_index (Txn_id.to_int txn)))
           && not (Lsn.is_nil pk.Log_record.p_prev_txn_lsn)
         then Hashtbl.replace straddlers (Txn_id.to_int txn) ();
         note_record t lsn pk
           ~wall:
             (match pk.Log_record.p_kind with
             | Log_record.K_commit -> (
                 match (decode ()).Log_record.body with
                 | Log_record.Commit { wall_us } -> wall_us
                 | _ -> 0.0)
             | _ -> 0.0))
   with e ->
     (* A failed scan must not leave a half-populated index serving
        queries: stay void, the next query retries the rebuild. *)
     Hashtbl.reset t.txn_index;
     raise e);
  Hashtbl.iter (fun key () -> Hashtbl.remove t.txn_index key) straddlers;
  t.txn_index_valid <- true

let txn_summaries t =
  if not t.txn_index_valid then rebuild_txn_index t;
  Hashtbl.fold
    (fun _ a acc ->
      if (not (Lsn.is_nil a.a_commit)) && not a.a_aborted then
        {
          ts_txn = a.a_txn;
          ts_first_lsn = a.a_first;
          ts_last_lsn = a.a_last_op;
          ts_commit_lsn = a.a_commit;
          ts_commit_wall_us = a.a_wall;
          ts_ops = a.a_ops;
          ts_has_clr = a.a_clr;
          ts_structural = a.a_structural;
          ts_writes = List.rev a.a_writes_rev;
        }
        :: acc
      else acc)
    t.txn_index []
  |> List.sort (fun x y -> Lsn.compare x.ts_commit_lsn y.ts_commit_lsn)

let txn_resolution t txn =
  if Txn_id.is_nil txn then `Unknown
  else begin
    if not t.txn_index_valid then rebuild_txn_index t;
    match Hashtbl.find_opt t.txn_index (Txn_id.to_int txn) with
    | None -> `Unknown
    | Some a ->
        if a.a_aborted then `Aborted
        else if not (Lsn.is_nil a.a_commit) then `Committed
        else `Active
  end

let txn_summary t txn =
  if not t.txn_index_valid then rebuild_txn_index t;
  match Hashtbl.find_opt t.txn_index (Txn_id.to_int txn) with
  | Some a when (not (Lsn.is_nil a.a_commit)) && not a.a_aborted ->
      Some
        {
          ts_txn = a.a_txn;
          ts_first_lsn = a.a_first;
          ts_last_lsn = a.a_last_op;
          ts_commit_lsn = a.a_commit;
          ts_commit_wall_us = a.a_wall;
          ts_ops = a.a_ops;
          ts_has_clr = a.a_clr;
          ts_structural = a.a_structural;
          ts_writes = List.rev a.a_writes_rev;
        }
  | _ -> None
