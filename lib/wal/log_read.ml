(* Every pricing decision for reading the log: the block cache, random
   record reads, chain gathers for rewinds and replays, and the
   sequentially priced scans.  Appends only touch the cache here; they
   are priced at flush. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
open Log_segments

(* ---------- the block cache ---------- *)

(* The first and last block of the [len] bytes at [lsn]. *)
let first_block t lsn = (Lsn.to_int lsn - 1) / t.block_bytes
let last_block t lsn len = (Lsn.to_int lsn - 1 + max 0 (len - 1)) / t.block_bytes

(* A new record almost always lands in the block the previous one
   touched, which [Lru.use] finds at the head and leaves there. *)
let touch_cache_on_append t lsn len =
  for b = first_block t lsn to last_block t lsn len do
    ignore (Lru.use t.cache b)
  done

(* One block missing from the cache: a random read, or a sequential one
   continuing a window.  A miss that serves a spilled ([cold]) segment is
   the reload event the [log.segments_loaded] probe counts; misses
   against the resident tail are the ordinary cache churn. *)
let charge_miss t ~seq ~cold =
  t.io.Io_stats.log_block_misses <- t.io.Io_stats.log_block_misses + 1;
  if seq then Media.seq_read t.media t.clock t.io t.block_bytes
  else Media.random_read t.media t.clock t.io t.block_bytes;
  if cold then begin
    t.loaded_count <- t.loaded_count + 1;
    Obs.incr Probes.log_segments_loaded
  end

let charge_blocks t seg lsn len =
  for b = first_block t lsn to last_block t lsn len do
    if Lru.use t.cache b then t.io.Io_stats.log_block_hits <- t.io.Io_stats.log_block_hits + 1
    else charge_miss t ~seq:false ~cold:(not seg.s_resident)
  done

(* ---------- record reads ---------- *)

(* Every record read decodes from the record's bytes in its segment
   blob.  [log_record_misses] counts these reads; [log_record_hits]
   stays 0. *)
let decode_at t seg i =
  t.io.Io_stats.log_record_misses <- t.io.Io_stats.log_record_misses + 1;
  Log_record.decode (rec_data seg i)

let locate_charged t lsn =
  let si, i = locate t lsn in
  let seg = t.segs.(si) in
  charge_blocks t seg lsn (rec_len seg i);
  (seg, i)

let charge_read t lsn = ignore (locate_charged t lsn : segment * int)

let read t lsn =
  let seg, i = locate_charged t lsn in
  decode_at t seg i

(* ---------- gathers ---------- *)

type gathered = { g_blob : Bytes.t array; g_pos : int array; g_len : int array }
type batch = { b_pages : gathered option array; b_windows_us : float array }

let gathering n =
  { g_blob = Array.make n Bytes.empty; g_pos = Array.make n 0; g_len = Array.make n 0 }

(* The one hand-off step of every gather: the record at [blob.[pos ..
   pos+len-1]] becomes slot [k] of [g] as its bytes where they sit in the
   segment blob — no copy, no decode.  The result is parallel arrays
   rather than one box per record: a long chain's array lives in the
   major heap, and storing a fresh box per record into it would promote
   every box. *)
let take t g k blob pos len =
  t.io.Io_stats.log_record_misses <- t.io.Io_stats.log_record_misses + 1;
  g.g_blob.(k) <- blob;
  g.g_pos.(k) <- pos;
  g.g_len.(k) <- len

(* Step 1 of [gather_batch] for one page: take each located record
   straight from its segment, its position checked in O(1)
   ([located_seg]), with no search.  The blocks each record spans are
   reported through [need first last cold] (consecutive records inside an
   already-reported block skip it); no block is charged here. *)
let gather_page t l need =
  let n = Array.length l.l_lsn in
  let g = gathering n in
  let covered = ref 0 in
  for k = 0 to n - 1 do
    let s = located_seg t l k in
    let i = l.l_at.(k) land at_mask and li = l.l_lsn.(k) in
    let len = (if i + 1 < s.s_n then s.s_lsns.(i + 1) else s.s_end) - li in
    if li + len - 1 > !covered then begin
      let first_b = (li - 1) / t.block_bytes in
      let last_b = (li - 1 + max 0 (len - 1)) / t.block_bytes in
      need first_b last_b (not s.s_resident);
      covered := (last_b + 1) * t.block_bytes
    end;
    take t g k s.s_blob (li - s.s_base) len
  done;
  g

(* Step 1's block reports, as (first, last, cold) triples: one buffer per
   domain, kept at the largest size a batch needed, since a report's
   rewind batch reports thousands of records. *)
let ranges_buffer = Domain.DLS.new_key (fun () -> ref (Array.make 48 0))

(* The rewind fetch for a whole batch of pages, in log order: take every
   page's located records (step 1), mark every block the batch needs in
   a bitmap over the batch's block span (step 2), then charge each marked
   block once, ascending (step 3).  A marked block still cached is a hit;
   a maximal run of consecutive missing blocks is one seek plus
   sequential transfer, capped at the cache capacity so a window never
   evicts its own head before it is read.  Different pages' records share
   blocks: a block two interleaved chains both touch is charged once for
   the batch, not once per page.  A page with a record whose position no longer
   holds it (a log change since it was located) gets [None]; the blocks
   it had already reported are still charged. *)
let gather_batch t reqs =
  let ranges = Domain.DLS.get ranges_buffer and nr = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  let need first last cold =
    if !nr + 3 > Array.length !ranges then
      ranges := grow ~floor:48 !ranges ~used:!nr ~need:(!nr + 3) 0;
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
      (fun l ->
        match gather_page t l need with
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
    let cold b = Bytes.get marks b = '\002' in
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
        charge_miss t ~seq:false ~cold:(cold !b);
        incr b;
        let run = ref 1 in
        while
          !run < cap && !b < span
          && Bytes.get marks !b <> '\000'
          && not (Lru.mem t.cache (lo + !b))
        do
          ignore (Lru.use t.cache (lo + !b));
          charge_miss t ~seq:true ~cold:(cold !b);
          incr b;
          incr run
        done;
        windows := (Sim_clock.now_us t.clock -. t0) :: !windows
      end
    done
  end;
  { b_pages; b_windows_us = Array.of_list (List.rev !windows) }

(* ---------- range scans ---------- *)

(* Scans are priced sequentially, per record as it is visited, so an
   early-exit scan only pays for the region it actually read. *)
let charge_seq t bytes = Media.seq_read t.media t.clock t.io bytes

let iter_range_peek t ~from ~upto f =
  iter_from t ~from ~upto (fun s i ->
      charge_seq t (rec_len s i);
      f (Lsn.of_int s.s_lsns.(i)) (rec_peek s i) (fun () -> decode_at t s i);
      true)

(* The log-scan redo gather: [iter_range_peek]'s order and pricing, every
   visited record charged; the page records [keep] admits are grouped by
   page and each page's are then [take]n, as a rewind's are. *)
let gather_range t ~from ~upto ~keep =
  let pages = Hashtbl.create 64 in
  iter_from t ~from ~upto (fun s i ->
      charge_seq t (rec_len s i);
      let pk = rec_peek s i in
      let lsn = Lsn.of_int s.s_lsns.(i) in
      if Log_record.is_page_kind pk.Log_record.p_kind && keep lsn pk.Log_record.p_page then begin
        let k = Page_id.to_int pk.Log_record.p_page in
        Hashtbl.replace pages k ((s, i) :: Option.value (Hashtbl.find_opt pages k) ~default:[])
      end;
      true);
  Hashtbl.fold (fun k recs acc -> (k, recs) :: acc) pages []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, recs) ->
         let recs = Array.of_list (List.rev recs) in
         let g = gathering (Array.length recs) in
         Array.iteri (fun j (s, i) -> take t g j s.s_blob (rec_pos s i) (rec_len s i)) recs;
         (Page_id.of_int k, Array.map (fun (s, i) -> Lsn.of_int s.s_lsns.(i)) recs, g))
  |> Array.of_list

let charge_scan t ~from ~upto =
  let lo = Lsn.max from t.truncated_below in
  let hi = Lsn.min upto t.end_lsn in
  let bytes = max 0 (Lsn.to_int hi - Lsn.to_int lo) in
  charge_seq t bytes
