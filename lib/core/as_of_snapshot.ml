module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Sparse_file = Rw_storage.Sparse_file
module Slotted_page = Rw_storage.Slotted_page
module Sim_clock = Rw_storage.Sim_clock
module Media = Rw_storage.Media
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Recovery = Rw_recovery.Recovery
module Domain_pool = Rw_pool.Domain_pool
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

(* Cost accounting for EXPLAIN: every page rewound on behalf of this
   snapshot is recorded, so a bracketing reader (the SQL executor, the
   Experiments table) can attribute exact per-page work to one query by
   diffing [rewind_count]/[side_file_hits] around it. *)
type rewind_cost = { rc_page : Page_id.t; rc_ops : int; rc_log_reads : int; rc_fpi : bool }

type tally = {
  mutable t_side_hits : int;
  mutable t_rewinds : rewind_cost list; (* newest first *)
  mutable t_rewind_count : int;
}

type t = {
  split_lsn : Lsn.t;
  sparse : Sparse_file.t;
  pool : Buffer_pool.t;
  log : Log_manager.t;
  primary_disk : Disk.t;
  creation_time_us : float;
  undo_time_us : float;
  in_flight_txns : int;
  undo_ops : int;
  tally : tally;
  shared : Prepared_cache.t option;
}

let split_lsn t = t.split_lsn
let pool t = t.pool
let creation_time_us t = t.creation_time_us
let undo_time_us t = t.undo_time_us
let in_flight_txns t = t.in_flight_txns
let undo_ops t = t.undo_ops
let pages_materialised t = Sparse_file.page_count t.sparse
let side_file_hits t = t.tally.t_side_hits
let rewind_count t = t.tally.t_rewind_count
let rewinds t = t.tally.t_rewinds

let drop t =
  Obs.gauge_add Probes.snapshots_live (-1.0);
  Sparse_file.drop t.sparse

let record_rewind tally pid (r : Page_undo.result) =
  tally.t_rewinds <-
    {
      rc_page = pid;
      rc_ops = r.Page_undo.ops_undone;
      rc_log_reads = r.Page_undo.log_records_read;
      rc_fpi = r.Page_undo.used_fpi;
    }
    :: tally.t_rewinds;
  tally.t_rewind_count <- tally.t_rewind_count + 1;
  Obs.incr Probes.snapshot_pages_materialized

let no_rewind = { Page_undo.ops_undone = 0; log_records_read = 0; used_fpi = false }

(* Batched materialization, staged across the shared domain pool:

   1. {e Gather} (coordinator): primary image reads, ascending, for
      pages the shared cache had nothing for, then one log-ordered
      gather for the whole batch ({!Page_undo.plan_batch}) — FPI peeks
      and chain-index lookups per page, then every log block the batch
      needs charged once, ascending, each record handed back as a span
      of its segment blob.  Every priced read and every shared cache
      happens here, on the calling domain, in an order independent of
      the fan-out.
   2. {e Apply} (workers, round-robin by index): validate and undo the
      chain in place against the private page image — pure CPU over
      private state and immutable log bytes.
   3. {e Publish} (coordinator, ascending page order): probes, rewind
      tallies, Prepared_cache inserts and side-file writes; a page whose
      plan the apply rejected takes the pointer walk on its restored
      image, without a second gather.

   Because gather and publish orders are fixed and workers touch nothing
   shared, results and counters are byte- and count-identical under any
   fan-out, including 1.  Fan-out changes modeled time only: each page's
   data read and each of the gather's charging windows is an item
   attributed to a round-robin partition, and the clock is credited back
   down to the slowest partition's total — [fanout] independent streams
   finish when the slowest does.

   Every as-of page takes this path: a pool miss is a batch of one.
   Returns the prepared pages, shared-cache hits first. *)
let materialize_pages ~tally ~shared ~sparse ~primary_disk ~log ~split pids =
  let ts = if Trace.on () then Trace.now () else 0.0 in
  let clock = Disk.clock primary_disk in
  let todo =
    List.sort_uniq Page_id.compare pids
    |> List.filter (fun pid -> not (Sparse_file.mem sparse pid))
  in
  (* Shared-cache pass first: exact images go straight to the side file
     (no chain to plan), newer images enter the batch needing only their
     delta chains, and misses will read the primary image in the gather. *)
  let exact = ref [] in
  let entering =
    List.filter_map
      (fun pid ->
        match shared with
        | None -> Some (pid, None)
        | Some cache -> (
            match Prepared_cache.find cache pid ~split with
            | Prepared_cache.Exact page ->
                record_rewind tally pid no_rewind;
                Sparse_file.write sparse pid page;
                exact := page :: !exact;
                None
            | Prepared_cache.Newer page -> Some (pid, Some page)
            | Prepared_cache.Miss -> Some (pid, None)))
      todo
  in
  let entering = Array.of_list entering in
  let read_us = Array.make (Array.length entering) 0.0 in
  let pages =
    Array.mapi
      (fun i (pid, cached) ->
        let t0 = Sim_clock.now_us clock in
        let page = match cached with Some p -> p | None -> Disk.read_page_checked primary_disk pid in
        read_us.(i) <- Sim_clock.now_us clock -. t0;
        page)
      entering
  in
  let plans, windows_us = Page_undo.plan_batch ~log ~as_of:split pages in
  let results = Array.make (Array.length pages) None in
  let fanout =
    Domain_pool.parallel_for (Array.length pages) (fun i ->
        results.(i) <- Page_undo.apply_raw ~page:pages.(i) ~as_of:split plans.(i))
  in
  (* Overlap credit: the gather charged every page read and every window
     serially; [fanout] concurrent streams finish when the slowest does. *)
  Sim_clock.credit_us clock
    (Domain_pool.overlap_credit ~fanout Fun.id (Array.append read_us windows_us));
  Array.iteri
    (fun i page ->
      let pid = Page.id page in
      let r =
        match results.(i) with
        | Some r ->
            Obs.incr Probes.snapshot_parallel_pages;
            ignore (Page_undo.note pid r : Page_undo.result);
            r
        | None ->
            Obs.incr Probes.walk_fallbacks;
            Page_undo.prepare_page_as_of_walk ~log ~page ~as_of:split
      in
      record_rewind tally pid r;
      (match shared with
      | Some cache -> Prepared_cache.add cache pid ~as_of:split page
      | None -> ());
      Sparse_file.write sparse pid page)
    pages;
  if Trace.on () then
    Trace.complete ~cat:"snapshot" ~ts
      ~args:[ ("pages", Trace.Int (List.length todo)); ("fanout", Trace.Int fanout) ]
      "snapshot.materialize_batch";
  List.rev_append !exact (Array.to_list pages)

let materialize_batch t pids =
  List.length
    (materialize_pages ~tally:t.tally ~shared:t.shared ~sparse:t.sparse
       ~primary_disk:t.primary_disk ~log:t.log ~split:t.split_lsn pids)

(* §5.3 read protocol, extended with the shared prepared-page cache: on a
   side-file miss, an exact cached image skips the rewind entirely and a
   newer cached image is delta-rewound over only the chain records between
   the two SplitLSNs.  Freshly rewound images are published back to the
   cache *before* any snapshot-local mutation (loser undo) touches them —
   the cache holds pure rewind results only. *)
let read_as_of ~tally ~shared ~sparse ~primary_disk ~log ~split pid =
  match Sparse_file.read sparse pid with
  | Some page ->
      tally.t_side_hits <- tally.t_side_hits + 1;
      Obs.incr Probes.snapshot_side_hits;
      page
  | None -> (
      match materialize_pages ~tally ~shared ~sparse ~primary_disk ~log ~split [ pid ] with
      | [ page ] -> page
      | _ -> assert false)

let create ~wall_us ~log ~primary_pool ~primary_disk ~txns ~clock ~media ?shared () =
  let t_start = Sim_clock.now_us clock in
  let trace_ts = if Trace.on () then Trace.now () else 0.0 in
  let tally = { t_side_hits = 0; t_rewinds = []; t_rewind_count = 0 } in
  (* 1. Wall-clock time -> SplitLSN. *)
  let split = Split_lsn.find ~log ~wall_us in
  let split_lsn = split.Split_lsn.split_lsn in
  (* 2. Force a checkpoint so every page with changes at or below the
     split is durable in the primary files — this is what lets the redo
     pass skip all page reads (§5.2). *)
  ignore
    (Recovery.checkpoint ~log ~pool:primary_pool ~txns ~wall_us:(Sim_clock.now_us clock)
       ~flush_pages:true ());
  let sparse = Sparse_file.create ~clock ~media () in
  (* 3. Analysis, bounded at the split: find in-flight transactions.  The
     redo pass performs no page I/O and is subsumed by this scan, which the
     control-record directory answers without reading the log when nothing
     is in flight. *)
  let analysis_start =
    if Lsn.is_nil split.Split_lsn.base_checkpoint then Log_manager.first_lsn log
    else split.Split_lsn.base_checkpoint
  in
  let losers = Recovery.losers_at ~log ~start:analysis_start ~upto:split_lsn in
  (* Pages mutated by the loser-undo pass below: their side-file copies
     diverge from the pure rewind images, so the pool's zero-cost cache
     peek must never serve them from the shared cache. *)
  let undone = Hashtbl.create 16 in
  let source =
    {
      Buffer_pool.read =
        (fun pid -> read_as_of ~tally ~shared ~sparse ~primary_disk ~log ~split:split_lsn pid);
      Buffer_pool.write = (fun pid page -> Sparse_file.write sparse pid page);
      Buffer_pool.write_seq = None;
      Buffer_pool.read_cached =
        (match shared with
        | None -> None
        | Some cache ->
            Some
              (fun pid ->
                (* Pages already materialised stay side-file-served (§5.3):
                   the side file is the authority once a page has been
                   rewound (it may carry loser-undo edits), so the peek only
                   accelerates pages this snapshot never touched. *)
                if Hashtbl.mem undone (Page_id.to_int pid) || Sparse_file.mem sparse pid
                then None
                else Prepared_cache.find_exact cache pid ~split:split_lsn));
    }
  in
  let pool = Buffer_pool.create ~capacity:256 ~source () in
  let t_open = Sim_clock.now_us clock in
  (* 4. Logical undo of in-flight transactions, applied to the snapshot's
     sparse file only: the primary log sees no CLRs from a read-only
     snapshot. *)
  let in_flight = Hashtbl.length losers.Recovery.in_flight in
  (* Batch-materialize the pages the losers touched (known from analysis)
     before the undo walk starts: their chains are fetched in one sorted
     pass instead of record-at-a-time as undo stumbles onto each page. *)
  ignore
    (materialize_pages ~tally ~shared ~sparse ~primary_disk ~log ~split:split_lsn
       losers.Recovery.in_flight_pages);
  let apply pid f =
    Hashtbl.replace undone (Page_id.to_int pid) ();
    let page = read_as_of ~tally ~shared ~sparse ~primary_disk ~log ~split:split_lsn pid in
    (match f page with Some lsn -> Page.set_lsn page lsn | None -> ());
    Sparse_file.write sparse pid page
  in
  let undo_ops =
    Recovery.undo_losers ~log ~losers:losers.Recovery.in_flight ~write_clr:false ~apply
  in
  let t_done = Sim_clock.now_us clock in
  Obs.incr Probes.snapshot_creates;
  Obs.gauge_add Probes.snapshots_live 1.0;
  if Trace.on () then
    Trace.complete ~cat:"snapshot" ~ts:trace_ts
      ~args:
        [
          ("split_lsn", Trace.Int (Lsn.to_int split_lsn));
          ("in_flight_txns", Trace.Int in_flight);
          ("loser_scan", Trace.Int (Bool.to_int losers.Recovery.loser_scan));
          ("undo_ops", Trace.Int undo_ops);
        ]
      "snapshot.create";
  {
    split_lsn;
    sparse;
    pool;
    log;
    primary_disk;
    creation_time_us = t_open -. t_start;
    undo_time_us = t_done -. t_open;
    in_flight_txns = in_flight;
    undo_ops;
    tally;
    shared;
  }

let materialized_page_ids t = Sparse_file.page_ids t.sparse

(* Canonical image of the page's logical state.  Raw page bytes are NOT a
   function of logical content: slotted-page compaction is unlogged
   physical reorganisation, so two rewinds to the same SplitLSN that
   started from different primary states can differ in [data_low],
   [garbage], row placement and the flush-time checksum while holding
   identical rows.  The canonical form keeps exactly what the log
   determines — the logical header fields and every slot's row — and is
   therefore byte-equal across any two snapshots at the same SplitLSN. *)
let page_string t pid =
  let page =
    read_as_of ~tally:t.tally ~shared:t.shared ~sparse:t.sparse ~primary_disk:t.primary_disk
      ~log:t.log ~split:t.split_lsn pid
  in
  let b = Buffer.create Page.page_size in
  (* page_lsn, page_id, page_type, level, slot_count: offsets 0..19. *)
  Buffer.add_string b (Bytes.sub_string page 0 20);
  (* skip data_low/garbage (20..23); prev/next/special: offsets 24..47;
     skip checksum + reserved. *)
  Buffer.add_string b (Bytes.sub_string page 24 24);
  Slotted_page.iter page (fun i row ->
      Buffer.add_string b (Printf.sprintf "|%d:%d:" i (String.length row));
      Buffer.add_string b row);
  Buffer.contents b
