(* The log's physical layout: segments, their record-offset arrays,
   sealing and residency, the live segment window, record lookup and the
   forward cursor, drops from the head and the tail, and torn stumps.
   The record types of the whole log live here too, since every part of
   the log manager reads segment fields directly. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Int_tbl = Rw_storage.Int_tbl
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Fault_plan = Rw_storage.Fault_plan
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

exception Log_truncated of Lsn.t
exception No_such_record of Lsn.t

(* Growable array: one page's chain records in one segment, each as its
   record index there, ascending (so in LSN order too).  A record's LSN
   is [s_lsns.(i)] and its bytes [rec_pos]/[rec_len]: a chain entry is a
   position, and reading the record needs no search. *)
type chain = { mutable arr : int array; mutable len : int }

(* A segment's control-record directory: every Begin, Commit, Abort, End
   and Checkpoint record, ascending, as unboxed parallel arrays of LSN,
   txn id and kind code ([Log_index.ctl_kinds]), plus the wall times of
   commits and checkpoints.  These few records decide a SplitLSN and
   which transactions were in flight at it, so as-of snapshot creation
   reads them here and leaves the rest of the log unread.

   Two running columns turn its walks into searches.  Both restart at
   each checkpoint and run on across segments: [c_max_wall] is the
   largest commit or checkpoint wall time since the newest checkpoint at
   or before the entry (since the log's first record before any), so it
   never decreases between two checkpoints.  It is also where the wall
   times are kept: a checkpoint's own is its column value, and so is a
   commit's unless it is lower (its caller gave a wall in the past),
   when [c_back] holds it by LSN.  [c_live] is 1 where the
   in-flight set a walk holds just after the entry is not empty, 0 where
   it is — the checkpoint's active list at a checkpoint, then Begin adds,
   Commit or End removes.  Only its emptiness is ever read, so one byte
   holds it.
   The segment's checkpoints are listed apart, by directory position and
   record index, so the checkpoint walks skip every other entry. *)
type ctl_dir = {
  mutable c_n : int;
  mutable c_lsn : int array;
  mutable c_txn : int array;
  mutable c_kind : Bytes.t;
  mutable c_max_wall : Float.Array.t;
  c_back : float Int_tbl.t; (* LSN -> a commit's wall below its [c_max_wall] *)
  mutable c_live : Bytes.t;
  mutable c_ckpts : int; (* checkpoint count *)
  mutable c_ckpt_at : int array; (* their directory positions, ascending *)
  mutable c_ckpt_rec : int array; (* their record indexes in the segment *)
}

(* The log is a sequence of fixed-size segments (LevelDB-style sealed
   files).  The newest segment is the active tail: appends land in its
   blob, in RAM.  Once the tail reaches [segment_bytes] it is sealed —
   immutable from then on — and spilled: its payload is priced as one
   sequential write and stops counting against modeled resident memory.
   Reads of a spilled segment go through the same block cache as always;
   a block miss is the "reload from media" event.

   Everything per-record is segment-local — the sorted record-offset
   array (locating a record by its LSN is two binary searches) and
   [Log_index]'s slices, which hold record indexes and so need none — so
   retention drops a whole sealed segment in O(1). *)
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
  mutable s_blob : Bytes.t; (* encoded payloads, contiguous from s_base *)
  mutable s_sealed : bool;
  mutable s_resident : bool; (* payload still counted as modeled RAM *)
  s_fpi : int list ref Int_tbl.t; (* page -> descending FPI record indexes *)
  s_chains : chain Int_tbl.t; (* page -> ascending page-record indexes *)
  s_ctl : ctl_dir;
  mutable s_index_bytes : int;
      (* modeled footprint of this segment's index structures; freed
         wholesale when the segment is dropped *)
}

(* Per-transaction summary accumulator for the write-set index (what-if
   dependency graphs), kept by [Log_index].  Counts rather than flags, so
   that unindexing a record is the exact reversal of indexing it; the
   public summary is assembled on query. *)
type txn_acc = {
  a_txn : Txn_id.t;
  a_first : Lsn.t;
  mutable a_commit : Lsn.t;
  mutable a_wall : float;
  mutable a_aborted : bool;
  mutable a_ops : int;
  mutable a_clrs : int;
  mutable a_structural : int;
  mutable a_writes_rev : (Page_id.t * Lsn.t) list; (* newest-first, first-write lsn per page *)
  mutable a_npages : int; (* length of a_writes_rev *)
  mutable a_pages : unit Int_tbl.t option;
      (* the pages of a_writes_rev, built only once they outnumber
         [Log_index.page_scan_limit]; below that a scan of the list
         answers membership *)
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
  ctl_live : unit Int_tbl.t;
      (* The in-flight set behind [c_live] after the newest control
         record; [Log_index.restore_running] rebuilds it after a tail
         drop. *)
  mutable ctl_max_wall : float; (* [c_max_wall] after the newest control record *)
  mutable ctl_stale : bool;
      (* A tail drop removed a control entry since the last
         [Log_index.restore_running]: [ctl_live] and [ctl_max_wall] no
         longer describe the newest entry left. *)
  txn_index : txn_acc Int_tbl.t;
      (* Per-transaction write-set summaries (unmodeled metadata), kept
         exact record by record alongside the segment directories, so
         dependency-graph construction never scans the log. *)
  mutable torn : int list;
      (* Start LSNs of the torn stumps [tear_last] left listed in their
         segment, already unindexed: no lookup finds them, and
         [remove_last] must not unindex them a second time. *)
}

let mk_segment ~segment_bytes base =
  {
    s_base = base;
    s_end = base;
    s_n = 0;
    s_dead = 0;
    s_lsns = Array.make 64 0;
    (* Sized for the whole segment plus one page image of overshoot, so
       appends never regrow and copy it; only a record larger than that
       slack still doubles it. *)
    s_blob = Bytes.create (max segment_bytes 64 + Log_record.image_record_size);
    s_sealed = false;
    s_resident = true;
    s_fpi = Int_tbl.create 8;
    s_chains = Int_tbl.create 16;
    s_ctl =
      {
        c_n = 0;
        c_lsn = [||];
        c_txn = [||];
        c_kind = Bytes.empty;
        c_max_wall = Float.Array.create 0;
        c_back = Int_tbl.create 1;
        c_live = Bytes.empty;
        c_ckpts = 0;
        c_ckpt_at = [||];
        c_ckpt_rec = [||];
      };
    s_index_bytes = 0;
  }

(* Shared filler for vacated slots in the segment window; never inside
   [seg_lo, seg_hi) and never mutated. *)
let tombstone = mk_segment ~segment_bytes:64 0

let segment_count t = t.seg_hi - t.seg_lo
let resident_bytes t = t.resident_payload + t.index_bytes

let update_resident_gauge t =
  Obs.set Probes.log_resident_bytes (float_of_int (resident_bytes t))

(* The one growth policy of every append-only buffer in the log: double
   the capacity [cap] (at least [floor]) until [need] fits. *)
let capacity ~floor cap need =
  let c = ref (max cap floor) in
  while !c < need do
    c := 2 * !c
  done;
  !c

(* [a] with room for [need] elements, its first [used] kept. *)
let grow ~floor a ~used ~need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (capacity ~floor (Array.length a) need) fill in
    Array.blit a 0 b 0 used;
    b
  end

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

(* Index of the first live segment with s_end > [ti] ([seg_hi] if none). *)
let seg_lower t ti =
  let lo = ref t.seg_lo and hi = ref t.seg_hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.segs.(mid).s_end <= ti then lo := mid + 1 else hi := mid
  done;
  !lo

(* A torn stump stays listed in its segment until tail repair drops it,
   but it is no record: no lookup finds it, so nothing reads its bytes. *)
let is_torn t li = match t.torn with [] -> false | torn -> List.mem li torn

let locate_opt t lsn =
  let li = Lsn.to_int lsn in
  let si = seg_lower t li in
  if si >= t.seg_hi || t.segs.(si).s_base > li then None
  else begin
    let s = t.segs.(si) in
    let i = rec_lower s li in
    if i < s.s_n && s.s_lsns.(i) = li && not (is_torn t li) then Some (si, i) else None
  end

let locate t lsn =
  if Lsn.(lsn < t.truncated_below) then raise (Log_truncated lsn);
  match locate_opt t lsn with Some x -> x | None -> raise (No_such_record lsn)

let peek_record t lsn =
  let si, i = locate t lsn in
  rec_peek t.segs.(si) i

let mem t lsn =
  Lsn.(lsn >= t.truncated_below) && match locate_opt t lsn with Some _ -> true | None -> false

let next_lsn_after t lsn =
  let si, i = locate t lsn in
  Lsn.of_int (Lsn.to_int lsn + rec_len t.segs.(si) i)

(* Position of the first record (across segments) with start LSN >=
   target, clamped at the retention boundary. *)
let global_lower t target =
  let ti = Lsn.to_int (Lsn.max target t.truncated_below) in
  let si = seg_lower t ti in
  if si >= t.seg_hi then None
  else begin
    let s = t.segs.(si) in
    let i = rec_lower s ti in
    if i < s.s_n then Some (si, i) else if si + 1 < t.seg_hi then Some (si + 1, 0) else None
  end

(* The forward cursor: [f s i] on the records with [from <= lsn < upto]
   ([from] clamped at the retention boundary), ascending across segment
   boundaries, until [f] answers [false]. *)
let iter_from t ~from ~upto f =
  match global_lower t from with
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
          continue := f s !i;
          incr i
        end
      done

(* ---------- located records ---------- *)

(* Records held by position, as the chain index hands them out: record
   [k] has LSN [l_lsn.(k)] and is record [l_at.(k) land at_mask] of the
   segment in window slot [l_at.(k) lsr at_bits].  A position is only as
   good as the log it was taken from: [located_seg] checks it in O(1)
   before every use, so after a log change in between (a retention cut,
   a tail drop, a window compaction) it either still holds its LSN's
   record or fails with [locate]'s exceptions; it never hands over
   another record. *)
type located = { l_lsn : int array; l_at : int array }

let at_bits = 32
let at_mask = (1 lsl at_bits) - 1
let at si i = (si lsl at_bits) lor i
let located_rec l k = l.l_at.(k) land at_mask
let no_records = { l_lsn = [||]; l_at = [||] }

(* The segment holding located record [k], once the position is checked:
   retained, inside the window, the record's LSN where it was, not torn.
   Same exceptions as [locate]. *)
let located_seg t l k =
  let li = l.l_lsn.(k) in
  if li < Lsn.to_int t.truncated_below then raise (Log_truncated (Lsn.of_int li));
  let si = l.l_at.(k) lsr at_bits and i = located_rec l k in
  if si < t.seg_lo || si >= t.seg_hi then raise (No_such_record (Lsn.of_int li));
  let s = t.segs.(si) in
  if i >= s.s_n || s.s_lsns.(i) <> li || is_torn t li then raise (No_such_record (Lsn.of_int li));
  s

let peek_located t l k = rec_peek (located_seg t l k) (located_rec l k)
let located_lsns l = Lsn.of_int_array l.l_lsn

let sub_located l pos len =
  { l_lsn = Array.sub l.l_lsn pos len; l_at = Array.sub l.l_at pos len }

let append_located a b =
  { l_lsn = Array.append a.l_lsn b.l_lsn; l_at = Array.append a.l_at b.l_at }

(* ---------- the segment window ---------- *)

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
  (* Immutable from here on: shrink the working arrays to fit.  The blob
     is copied only when its unused tail is more than an eighth of the
     payload, as with small segments: a full-size segment keeps its few
     KiB of image slack rather than copying every record a second time. *)
  if Array.length seg.s_lsns > seg.s_n then seg.s_lsns <- Array.sub seg.s_lsns 0 seg.s_n;
  let used = seg_used seg in
  if Bytes.length seg.s_blob - used > used / 8 then seg.s_blob <- Bytes.sub seg.s_blob 0 used;
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

let full t seg = seg_used seg >= t.segment_bytes

let active_segment t =
  if t.seg_hi = t.seg_lo || t.segs.(t.seg_hi - 1).s_sealed then
    push_seg t (mk_segment ~segment_bytes:t.segment_bytes (Lsn.to_int t.end_lsn));
  t.segs.(t.seg_hi - 1)

(* Physical placement shared by every append: reserve [len] bytes for
   the record at [lsn] in the active segment, payload unwritten.
   Amortized O(1) — the offset arrays grow by doubling within a bounded
   segment, the blob is allocated at its full size, and sealing touches
   each byte once. *)
let reserve t lsn len =
  let seg = active_segment t in
  let need = seg_used seg + len in
  if need > Bytes.length seg.s_blob then begin
    let b = Bytes.create (capacity ~floor:64 (Bytes.length seg.s_blob) need) in
    Bytes.blit seg.s_blob 0 b 0 (seg_used seg);
    seg.s_blob <- b
  end;
  if seg.s_n = Array.length seg.s_lsns then
    seg.s_lsns <- grow ~floor:64 seg.s_lsns ~used:seg.s_n ~need:(seg.s_n + 1) 0;
  seg.s_lsns.(seg.s_n) <- Lsn.to_int lsn;
  seg.s_n <- seg.s_n + 1;
  seg.s_end <- Lsn.to_int lsn + len;
  t.nrecords <- t.nrecords + 1;
  t.end_lsn <- Lsn.of_int seg.s_end;
  t.total_appended_bytes <- t.total_appended_bytes + len;
  t.resident_payload <- t.resident_payload + len;
  seg

(* ---------- drops from the head ---------- *)

(* Retention up to the byte offset [li]: whole segments below it go
   wholesale — their index tables become garbage in one step, which is
   what makes retention O(1) per segment instead of O(records) — and the
   straddling segment (if any) keeps its dead prefix physically, since it
   is immutable, but the records leave the retained count.  The block
   cache needs no invalidation: membership is a cost-model artifact, and
   a dropped LSN can never be served from it because every read path
   checks [truncated_below] before touching a block. *)
let drop_head t li =
  while t.seg_lo < t.seg_hi && t.segs.(t.seg_lo).s_end <= li do
    let seg = t.segs.(t.seg_lo) in
    if seg.s_resident then t.resident_payload <- t.resident_payload - seg_used seg;
    t.index_bytes <- t.index_bytes - seg.s_index_bytes;
    t.nrecords <- t.nrecords - (seg.s_n - seg.s_dead);
    t.dropped_count <- t.dropped_count + 1;
    Obs.incr Probes.log_segments_dropped;
    t.segs.(t.seg_lo) <- tombstone;
    t.seg_lo <- t.seg_lo + 1
  done;
  t.truncated_below <- Lsn.of_int li;
  if t.seg_lo < t.seg_hi then begin
    let s = t.segs.(t.seg_lo) in
    if s.s_base < li then begin
      let dead = rec_lower s li in
      if dead > s.s_dead then begin
        t.nrecords <- t.nrecords - (dead - s.s_dead);
        s.s_dead <- dead
      end
    end
  end

(* ---------- drops from the tail, torn stumps ---------- *)

(* Remove the newest record, after [unindex s i] (skipped for a torn
   stump, unindexed when it was torn); pops the tail segment once it has
   no live records left. *)
let remove_last t ~unindex =
  let si = t.seg_hi - 1 in
  let s = t.segs.(si) in
  let i = s.s_n - 1 in
  let li = s.s_lsns.(i) in
  let len = rec_len s i in
  if List.mem li t.torn then t.torn <- List.filter (( <> ) li) t.torn else unindex s i;
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

(* Drop every record with start LSN >= [ti] off the newest end of the
   log, newest first, each through [remove_last] so that every index
   reverses record by record.  The one tail drop of [crash],
   [repair_tail] and [truncate_from]; callers fix up the end of the log
   afterwards.  Returns how many records were dropped. *)
let drop_tail t ti ~unindex =
  let dropped = ref 0 in
  while
    t.seg_hi > t.seg_lo
    &&
    let s = t.segs.(t.seg_hi - 1) in
    s.s_n > s.s_dead && s.s_lsns.(s.s_n - 1) >= ti
  do
    remove_last t ~unindex;
    incr dropped
  done;
  !dropped

(* Tear the newest record: only the prefix of [cut len] of its [len]
   bytes survives.  It is unindexed now, while its header is still
   intact, and once ([torn]); it stays listed in its segment, whose
   [s_end] just stops short, exactly as a torn file would, until tail
   repair finds it.  Returns the new end of the log. *)
let tear_last t ~cut ~unindex =
  let s = t.segs.(t.seg_hi - 1) in
  let i = s.s_n - 1 in
  let li = s.s_lsns.(i) in
  let len = rec_len s i in
  let cut = cut len in
  unindex s i;
  t.torn <- li :: t.torn;
  s.s_end <- li + cut;
  if s.s_resident then t.resident_payload <- t.resident_payload - (len - cut);
  Lsn.of_int (li + cut)
