module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Latch = Rw_buffer.Latch
module Txn_manager = Rw_txn.Txn_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace
module Page_batch = Rw_pool.Page_batch
module Int_tbl = Rw_storage.Int_tbl

let checkpoint ~log ~pool ~txns ~wall_us ?(flush_pages = false) () =
  let ts = if Trace.on () then Trace.now () else 0.0 in
  if flush_pages then Buffer_pool.flush_all pool;
  let record =
    Log_record.make
      (Log_record.Checkpoint
         {
           wall_us;
           active_txns = Txn_manager.active_txns txns;
           dirty_pages = Buffer_pool.dirty_page_table pool;
         })
  in
  let lsn = Log_manager.append log record in
  Log_manager.flush log ~upto:lsn;
  (* The checkpoint's flush covers every pending commit record, so deliver
     the durability acknowledgements it earned. *)
  ignore (Txn_manager.ack_flushed txns);
  Log_manager.set_last_checkpoint log lsn;
  if Trace.on () then Trace.complete ~cat:"recovery" ~ts "recovery.checkpoint";
  lsn

type analysis = {
  losers : Lsn.t Int_tbl.t;
  dirty_pages : Lsn.t Int_tbl.t;
  txn_pages : unit Int_tbl.t Int_tbl.t;
  redo_start : Lsn.t;
  max_txn_id : Txn_id.t;
  records_scanned : int;
}

(* Whether the range opens with a checkpoint record at [start], which
   seeds the analysis tables. *)
let starts_at_checkpoint ~log ~start ~upto =
  Lsn.(start < upto)
  && Log_manager.mem log start
  && (Log_manager.peek_record log start).Log_record.p_kind = Log_record.K_checkpoint

(* The priced read of the start checkpoint, if [start] is one: the seed
   record and where the scan proper begins. *)
let analysis_head ~log ~start ~upto =
  if starts_at_checkpoint ~log ~start ~upto then
    (Some (Log_manager.read log start), Log_manager.next_lsn_after log start)
  else (None, start)

(* Analysis only needs record headers (txn, kind, page); the one exception
   is checkpoint records, whose embedded tables require a decode.  The
   master checkpoint — always the first record of the range — is decoded
   once up front by [analysis_head] and arrives as [seed]; any later
   checkpoints inside the range use the on-demand thunk.  Everything else
   is peeked, so the scan never allocates row payloads.  [txn_pages] is
   filled only with [collect_pages]: a restart finds its losers' pages by
   walking their chains, if it needs them at all. *)
let analysis_scan ~log ~seed ~scan_from ~upto ~collect_pages =
  let losers = Int_tbl.create 16 in
  let dirty_pages = Int_tbl.create 64 in
  let txn_pages = Int_tbl.create 16 in
  let max_txn = ref Txn_id.nil in
  let scanned = ref 0 in
  let see_txn txn = if Txn_id.compare txn !max_txn > 0 then max_txn := txn in
  let see_page page lsn =
    let k = Page_id.to_int page in
    if not (Int_tbl.mem dirty_pages k) then Int_tbl.replace dirty_pages k lsn
  in
  let note_txn_page txn page =
    let pages =
      match Int_tbl.find_opt txn_pages txn with
      | Some h -> h
      | None ->
          let h = Int_tbl.create 8 in
          Int_tbl.replace txn_pages txn h;
          h
    in
    Int_tbl.replace pages (Page_id.to_int page) ()
  in
  let seed_checkpoint r =
    match r.Log_record.body with
    | Log_record.Checkpoint { active_txns; dirty_pages = dpt; _ } ->
        List.iter
          (fun (t, last) ->
            see_txn t;
            let k = Txn_id.to_int t in
            if not (Int_tbl.mem losers k) then Int_tbl.replace losers k last)
          active_txns;
        List.iter (fun (page, rec_lsn) -> see_page page rec_lsn) dpt
    | _ -> assert false
  in
  Option.iter
    (fun r ->
      incr scanned;
      seed_checkpoint r)
    seed;
  Log_manager.iter_range_peek log ~from:scan_from ~upto (fun lsn pk decode ->
      incr scanned;
      let txn = pk.Log_record.p_txn in
      see_txn txn;
      let k = Txn_id.to_int txn in
      match pk.Log_record.p_kind with
      | Log_record.K_checkpoint -> seed_checkpoint (decode ())
      | Log_record.K_begin -> Int_tbl.replace losers k lsn
      | Log_record.K_commit | Log_record.K_end -> Int_tbl.remove losers k
      | Log_record.K_abort -> if Int_tbl.mem losers k then Int_tbl.replace losers k lsn
      | Log_record.K_page_op _ | Log_record.K_clr _ ->
          if not (Txn_id.is_nil txn) then begin
            Int_tbl.replace losers k lsn;
            if collect_pages then note_txn_page k pk.Log_record.p_page
          end;
          see_page pk.Log_record.p_page lsn);
  let redo_start = Int_tbl.fold (fun _ rec_lsn acc -> Lsn.min rec_lsn acc) dirty_pages upto in
  { losers; dirty_pages; txn_pages; redo_start; max_txn_id = !max_txn; records_scanned = !scanned }

let analyze_from ~log ~start ~upto ~collect_pages =
  let seed, scan_from = analysis_head ~log ~start ~upto in
  analysis_scan ~log ~seed ~scan_from ~upto ~collect_pages

let analyze ~log ~start ~upto = analyze_from ~log ~start ~upto ~collect_pages:true

let loser_pages analysis =
  let seen = Int_tbl.create 64 in
  Int_tbl.iter
    (fun txn _ ->
      match Int_tbl.find_opt analysis.txn_pages txn with
      | Some pages -> Int_tbl.iter (fun p () -> Int_tbl.replace seen p ()) pages
      | None -> ())
    analysis.losers;
  Int_tbl.fold (fun p () acc -> Page_id.of_int p :: acc) seen []

type losers = {
  in_flight : Lsn.t Int_tbl.t;
  in_flight_pages : Page_id.t list;
  loser_scan : bool;
}

(* Which transactions were in flight at [upto], asked of the control-record
   directory.  Every transaction logs Begin before its first page record,
   and a checkpoint lists every transaction then active, so from a start
   checkpoint (its active set) or from the log's origin (nothing) the
   Begin/Commit/Abort/End entries alone track the in-flight set: Begin
   adds, Commit or End removes, Abort keeps.  The directory keeps that
   set's size per entry ([Log_manager.none_in_flight]); when it is 0 at
   [upto] the analysis scan would find no loser, and only its price is
   charged: the seed checkpoint's read, with no decode, and the scan.  A
   loser's last LSN and pages live in page records, so when anything is
   in flight — or the directory cannot answer exactly: a start that is
   neither, a checkpoint inside the range, an [upto] off a record
   boundary — the analysis scan runs after all, from the seed read. *)
let losers_at ~log ~start ~upto =
  let seeded = starts_at_checkpoint ~log ~start ~upto in
  let scan_from = if seeded then Log_manager.next_lsn_after log start else start in
  let decidable =
    (seeded || (Lsn.to_int start = 1 && Lsn.to_int (Log_manager.first_lsn log) = 1))
    && (Lsn.(upto >= Log_manager.end_lsn log) || Log_manager.mem log upto)
  in
  if Lsn.(start >= upto) || (decidable && Log_manager.none_in_flight log ~from:scan_from ~upto)
  then begin
    if seeded then Log_manager.charge_read log start;
    Log_manager.charge_scan log ~from:scan_from ~upto;
    { in_flight = Int_tbl.create 1; in_flight_pages = []; loser_scan = false }
  end
  else begin
    Obs.incr Probes.snapshot_loser_scans;
    let seed = if seeded then Some (Log_manager.read log start) else None in
    let a = analysis_scan ~log ~seed ~scan_from ~upto ~collect_pages:true in
    { in_flight = a.losers; in_flight_pages = loser_pages a; loser_scan = true }
  end

(* The one log-scan redo loop, shared by restart ([recover],
   [recover_redo_only]), replica catch-up and backup roll-forward
   ([redo_range]); callers choose only the record filter [wanted].  The
   gather ([Log_manager.gather_range]) peeks headers and hands over the
   page records [wanted] admits, grouped by page, in the form a rewind
   gets them.  The pages then go through [Page_batch] in page-id order,
   half a pool per batch so the pinned set never overwhelms the pool:
   the batch gather fetches the frames, each page replays its own
   records in LSN order through [Page_repair.redo_record], and publish
   marks dirty and unpins.  The fetches are not timed, so redo reports
   no costs and takes no overlap credit.  The page-LSN guard makes the
   replay idempotent (redo-only recovery's invariant), so an overlapping
   range or a page already on disk applies nothing twice. *)
let redo ~log ~pool ~from ~upto ~wanted =
  let redone = ref 0 in
  Obs.add Probes.recovery_redo_partitions
  @@ Page_batch.run ~clock:(Log_manager.clock log) ~span:"recovery.redo_batch"
    ~chunk:(Buffer_pool.capacity pool / 2)
    ~gather:(fun batch ->
      ((batch, Array.map (fun (pid, _, _) -> Buffer_pool.fetch pool pid) batch), [||]))
    ~apply:(fun (batch, frames) i ->
      (* [first]: the first LSN applied (the frame's recovery LSN). *)
      let pid, lsns, g = batch.(i) in
      let pg = Buffer_pool.page frames.(i) in
      let first = ref Lsn.nil and count = ref 0 in
      Array.iteri
        (fun k lsn ->
          if Page_repair.redo_record pid g k lsn pg then begin
            if Lsn.is_nil !first then first := lsn;
            incr count
          end)
        lsns;
      (!first, !count))
    ~publish:(fun (_, frames) i (first, count) ->
      if count > 0 then Buffer_pool.mark_dirty pool frames.(i) ~lsn:first;
      redone := !redone + count;
      Buffer_pool.unpin pool frames.(i))
    (Log_manager.gather_range log ~from ~upto ~keep:wanted);
  !redone

(* Analysis filter: a dirty page's records from its recovery LSN on. *)
let redo_dirty ~log ~pool ~analysis ~upto =
  redo ~log ~pool ~from:analysis.redo_start ~upto ~wanted:(fun lsn page ->
      match Int_tbl.find_opt analysis.dirty_pages (Page_id.to_int page) with
      | Some rec_lsn -> Lsn.(lsn >= rec_lsn)
      | None -> false)

let undo_losers ~log ~losers ~write_clr ~apply =
  let next_undo = Int_tbl.copy losers in
  let tails = Int_tbl.copy losers in
  let undone = ref 0 in
  let pick () =
    Int_tbl.fold
      (fun txn lsn acc ->
        match acc with Some (_, best) when Lsn.(best >= lsn) -> acc | _ -> Some (txn, lsn))
      next_undo None
  in
  let finish k =
    if write_clr then begin
      let tail = Int_tbl.find tails k in
      ignore
        (Log_manager.append log
           (Log_record.make ~txn:(Txn_id.of_int k) ~prev_txn_lsn:tail Log_record.End))
    end;
    Int_tbl.remove next_undo k;
    Int_tbl.remove tails k
  in
  let undo_op k ~page ~op ~undo_next =
    match Log_record.invert op with
    | None -> ()
    | Some inverse ->
        apply page (fun p ->
            incr undone;
            if write_clr then begin
              let prev_page_lsn = Page.lsn p in
              let tail = Int_tbl.find tails k in
              let clr_lsn =
                Log_manager.append log
                  (Log_record.make ~txn:(Txn_id.of_int k) ~prev_txn_lsn:tail
                     (Log_record.Clr { page; prev_page_lsn; op = inverse; undo_next }))
              in
              Int_tbl.replace tails k clr_lsn;
              Log_record.redo page inverse p;
              Some clr_lsn
            end
            else begin
              Log_record.undo op p;
              None
            end)
  in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some (k, lsn) ->
        if Lsn.is_nil lsn then finish k
        else begin
          let r = Log_manager.read log lsn in
          (match r.Log_record.body with
          | Log_record.Begin -> finish k
          | Log_record.Page_op { page; op; _ } ->
              undo_op k ~page ~op ~undo_next:r.Log_record.prev_txn_lsn;
              Int_tbl.replace next_undo k r.Log_record.prev_txn_lsn
          | Log_record.Clr { undo_next; _ } -> Int_tbl.replace next_undo k undo_next
          | Log_record.Abort | Log_record.Commit _ | Log_record.End | Log_record.Checkpoint _ ->
              Int_tbl.replace next_undo k r.Log_record.prev_txn_lsn);
          loop ()
        end
  in
  loop ();
  !undone

type stats = {
  analysis : analysis;
  mutable redone_ops : int;
  mutable undone_ops : int;
  mutable ended_losers : int;
  tail_truncated : (Lsn.t * int) option;
  mutable analysis_us : float;
  mutable time_to_first_query_us : float;
  mutable time_to_full_recovery_us : float;
}

(* The opening every restart shares: validate the crash-time tail — a
   torn record, and anything after it, is discarded so the scans below only
   ever see whole records instead of dying mid-analysis on a decode
   failure — then analyze from the master checkpoint (the log's origin if
   none) to the end of the log, traced as [recovery.analysis].  Returns
   the start time, the analysis horizon and the stats of a restart that has
   done nothing else yet. *)
let prologue ~now_us ~log =
  let t0 = now_us () in
  let tail_truncated = Log_manager.repair_tail log in
  let start =
    let c = Log_manager.last_checkpoint log in
    if Lsn.is_nil c then Log_manager.first_lsn log else c
  in
  let upto = Log_manager.end_lsn log in
  let ts = if Trace.on () then Trace.now () else 0.0 in
  let analysis = analyze_from ~log ~start ~upto ~collect_pages:false in
  let analysis_us = now_us () -. t0 in
  if Trace.on () then
    Trace.complete ~cat:"recovery" ~ts
      ~args:[ ("records_scanned", Trace.Int analysis.records_scanned) ]
      "recovery.analysis";
  Obs.incr Probes.recovery_runs;
  ( t0,
    upto,
    {
      analysis;
      redone_ops = 0;
      undone_ops = 0;
      ended_losers = 0;
      tail_truncated;
      analysis_us;
      time_to_first_query_us = 0.0;
      time_to_full_recovery_us = 0.0;
    } )

(* Log-scan redo of the analysis's dirty pages up to [upto], traced as
   [recovery.redo]. *)
let redo_analyzed ~log ~pool ~upto stats =
  let ts = if Trace.on () then Trace.now () else 0.0 in
  stats.redone_ops <- redo_dirty ~log ~pool ~analysis:stats.analysis ~upto;
  Obs.add Probes.recovery_redone stats.redone_ops;
  if Trace.on () then
    Trace.complete ~cat:"recovery" ~ts
      ~args:[ ("redone_ops", Trace.Int stats.redone_ops) ]
      "recovery.redo"

(* A restart that recovers everything before it opens: first query and
   full recovery are the same moment. *)
let opened ~now_us ~log t0 stats =
  Log_manager.flush_all log;
  let total = now_us () -. t0 in
  stats.time_to_first_query_us <- total;
  stats.time_to_full_recovery_us <- total;
  stats

let recover ?(now_us = fun () -> 0.0) ~log ~pool () =
  let t0, upto, stats = prologue ~now_us ~log in
  redo_analyzed ~log ~pool ~upto stats;
  let losers = stats.analysis.losers in
  stats.ended_losers <- Int_tbl.length losers;
  let apply pid f =
    Buffer_pool.with_frame pool pid ~mode:Latch.Exclusive (fun frame ->
        let p = Buffer_pool.page frame in
        match f p with
        | Some lsn ->
            Page.set_lsn p lsn;
            Buffer_pool.mark_dirty pool frame ~lsn
        | None -> ())
  in
  let ts = if Trace.on () then Trace.now () else 0.0 in
  stats.undone_ops <- undo_losers ~log ~losers ~write_clr:true ~apply;
  Obs.add Probes.recovery_undone stats.undone_ops;
  if Trace.on () then
    Trace.complete ~cat:"recovery" ~ts
      ~args:[ ("undone_ops", Trace.Int stats.undone_ops) ]
      "recovery.undo";
  opened ~now_us ~log t0 stats

(* --- replica-side redo: continuous catch-up and redo-only restart --- *)

(* Every page record in the range: the stream's pages are whatever it
   mentions, so the gather itself is the range's dirty-page table and
   each shipped byte is read once. *)
let redo_range ~log ~pool ~from ~upto = redo ~log ~pool ~from ~upto ~wanted:(fun _ _ -> true)

let recover_redo_only ?(now_us = fun () -> 0.0) ~log ~pool () =
  let t0, upto, stats = prologue ~now_us ~log in
  redo_analyzed ~log ~pool ~upto stats;
  (* No undo and no appended records: a replica's log must stay a
     byte-identical prefix of the primary's stream, so losers are left
     in place on the pages (reads go through as-of snapshots, which
     perform snapshot-local loser undo without logging) and the
     catch-up stream itself will deliver their Aborts or CLRs. *)
  opened ~now_us ~log t0 stats

(* --- instant restart: open after analysis, recover pages on first touch --- *)

module Instant = struct
  type io = {
    io_source : Buffer_pool.source;
    io_wal_flush : Lsn.t -> unit;
    io_quarantine : Page_repair.Quarantine.t;
  }

  (* A recovery group: pages tied together, transitively, by in-flight
     transactions, with those transactions and their last LSNs.  Undoing a
     loser must be all-or-nothing — its CLR chain walks the whole
     transaction newest-first, so a partially-undone transaction would
     leave [undo_next] pointing into territory a later crash recovery
     could not interpret — so a group is recovered, and leaves the
     backlog, as one unit.  A page no loser touched is a group of one. *)
  type group = { members : int array; (* ascending *) losers : Lsn.t Int_tbl.t }

  type t = {
    log : Log_manager.t;
    horizon : Lsn.t;
    stats : stats;
    pending : unit Int_tbl.t;
    groups : group Int_tbl.t; (* every loser page -> its group *)
    order : int array; (* the backlog at open, ascending *)
    mutable cursor : int; (* every page of [order] before it has left the backlog *)
    now_us : unit -> float;
    t_start_us : float;
    mutable io : io option;
    mutable touching : bool;
  }

  let backlog t = Int_tbl.length t.pending
  let pending_page t pid = Int_tbl.mem t.pending (Page_id.to_int pid)
  let stats t = t.stats

  (* Read at most this many pages per drain pass, so draining a large
     backlog holds a bounded set of page images. *)
  let pass_pages = 256

  (* Every page an in-flight transaction touched, before the analysis
     start too: walk its chain back to its Begin, each record priced as a
     read, but only its header peeked. *)
  let txn_page_set ~log last =
    let pages = Int_tbl.create 8 in
    let rec walk lsn =
      if not (Lsn.is_nil lsn) then begin
        Log_manager.charge_read log lsn;
        let pk = Log_manager.peek_record log lsn in
        if Log_record.is_page_kind pk.Log_record.p_kind then
          Int_tbl.replace pages (Page_id.to_int pk.Log_record.p_page) ();
        if pk.Log_record.p_kind <> Log_record.K_begin then walk pk.Log_record.p_prev_txn_lsn
      end
    in
    walk last;
    pages

  (* The groups, computed once at open: each loser's page set joins, and
     merges, the groups its pages already belong to.  They stay exact as
     the backlog drains, because every loser of a group ends when the
     group is recovered.  Every loser page enters [pending].  A loser that
     touched no page (it logged only its Begin) joins no group; those are
     returned apart. *)
  let loser_groups ~log ~(analysis : analysis) ~pending =
    let groups = Int_tbl.create 16 and idle = Int_tbl.create 2 in
    Int_tbl.iter
      (fun txn last ->
        let pages = txn_page_set ~log last in
        if Int_tbl.length pages = 0 then Int_tbl.replace idle txn last
        else begin
          let losers = Int_tbl.create 2 in
          Int_tbl.replace losers txn last;
          let members = ref [] and merged = ref [] in
          Int_tbl.iter
            (fun k () ->
              Int_tbl.replace pending k ();
              match Int_tbl.find_opt groups k with
              | None -> members := k :: !members
              | Some g ->
                  if not (List.memq g !merged) then begin
                    merged := g :: !merged;
                    Int_tbl.iter (Int_tbl.replace losers) g.losers;
                    members := Array.fold_left (fun acc m -> m :: acc) !members g.members
                  end)
            pages;
          let members = Array.of_list !members in
          Array.sort Int.compare members;
          let g = { members; losers } in
          Array.iter (fun k -> Int_tbl.replace groups k g) members
        end)
      analysis.losers;
    (groups, idle)

  (* The losers with no page still have to end, as full restart ends
     them.  They join the group of the smallest loser page, so their End
     records fall among that group's CLRs in the order full restart's undo
     gives them; with no group, they end now. *)
  let end_idle ~log ~stats groups idle =
    if Int_tbl.length idle > 0 then
      let first k g acc = match acc with Some (k', _) when k' < k -> acc | _ -> Some (k, g) in
      match Int_tbl.fold first groups None with
      | Some (_, g) -> Int_tbl.iter (Int_tbl.replace g.losers) idle
      | None ->
          ignore (undo_losers ~log ~losers:idle ~write_clr:true ~apply:(fun _ _ -> ()) : int);
          stats.ended_losers <- stats.ended_losers + Int_tbl.length idle

  let open_ ?(now_us = fun () -> 0.0) ~log () =
    let t_start_us, horizon, stats = prologue ~now_us ~log in
    let analysis = stats.analysis in
    let pending = Int_tbl.create 64 in
    Int_tbl.iter (fun k _ -> Int_tbl.replace pending k ()) analysis.dirty_pages;
    let groups, idle = loser_groups ~log ~analysis ~pending in
    end_idle ~log ~stats groups idle;
    let order = Array.make (Int_tbl.length pending) 0 and n = ref 0 in
    Int_tbl.iter
      (fun k () ->
        order.(!n) <- k;
        incr n)
      pending;
    Array.sort Int.compare order;
    Obs.gauge_add Probes.recovery_backlog (float_of_int (Int_tbl.length pending));
    {
      log;
      horizon;
      stats;
      pending;
      groups;
      order;
      cursor = 0;
      now_us;
      t_start_us;
      io = None;
      touching = false;
    }

  let attach t ~source ~wal_flush ~quarantine =
    t.io <- Some { io_source = source; io_wal_flush = wal_flush; io_quarantine = quarantine }

  let mark_full_recovery t =
    if t.stats.time_to_full_recovery_us = 0.0 then
      t.stats.time_to_full_recovery_us <- t.now_us () -. t.t_start_us

  let mark_open t =
    if t.stats.time_to_first_query_us = 0.0 then
      t.stats.time_to_first_query_us <- t.now_us () -. t.t_start_us;
    if backlog t = 0 then mark_full_recovery t

  let no_losers : Lsn.t Int_tbl.t = Int_tbl.create 1

  let group_of t k =
    match Int_tbl.find_opt t.groups k with
    | Some g -> g
    | None -> { members = [| k |]; losers = no_losers }

  let leave t ~on_demand k =
    if Int_tbl.mem t.pending k then begin
      Int_tbl.remove t.pending k;
      Obs.gauge_add Probes.recovery_backlog (-1.0);
      if on_demand then Obs.incr Probes.recovery_pages_on_demand
    end

  (* One pass's state: its groups and their pages as [Page_batch] entries,
     ascending.  A quarantined group's pages hold [Bytes.empty]. *)
  type pass = {
    groups : group array;
    pids : int array;
    group_ix : int array; (* entry -> its group in [groups] *)
    failed : bool array; (* per group: a member could not be read *)
    pages : Page.t array;
    read_lsn : Lsn.t array;
    suffixes : Log_manager.located array;
    chains : Log_manager.gathered option array;
    mutable written : int; (* the last page written back *)
  }

  (* Read the pass's pages in page-id order, the touched page's image
     taken as read.  A member that cannot be read quarantines its whole
     group before anything is applied: each other member joins the
     quarantine with a reason naming the damaged page, every member
     leaves the backlog, and the pages read are released. *)
  let read_pages t io ~seed groups pids group_ix =
    let is_seed k = match seed with Some (s, _) -> s = k | None -> false in
    let pages = Array.make (Array.length pids) Bytes.empty in
    let failed = Array.make (Array.length groups) false in
    Array.iteri
      (fun i k ->
        let gi = group_ix.(i) in
        if not failed.(gi) then
          match seed with
          | Some (s, page) when s = k -> pages.(i) <- page
          | _ -> (
              match io.io_source.Buffer_pool.read (Page_id.of_int k) with
              | p -> pages.(i) <- p
              | exception Page_repair.Quarantined bad ->
                  failed.(gi) <- true;
                  Array.iter
                    (fun m ->
                      if m <> Page_id.to_int bad then
                        Page_repair.Quarantine.add io.io_quarantine (Page_id.of_int m)
                          (Printf.sprintf "recovery group member page %d quarantined"
                             (Page_id.to_int bad));
                      leave t ~on_demand:false m)
                    groups.(gi).members))
      pids;
    Array.iteri
      (fun i k ->
        if failed.(group_ix.(i)) && pages.(i) != Bytes.empty then begin
          if not (is_seed k) then Page.release pages.(i);
          pages.(i) <- Bytes.empty
        end)
      pids;
    (pages, failed)

  (* The gather: the pages, then every live page's chain suffix over
     (page LSN, horizon] fetched in one log-ordered [gather_batch], so a
     log block the pass shares is charged once.  Data-page reads stay one
     random read each.  No cost is reported, so the pass takes no overlap
     credit (DESIGN.md §15). *)
  let gather t io ~seed groups group_ix pids =
    let pages, failed = read_pages t io ~seed groups pids group_ix in
    let suffixes =
      Array.mapi
        (fun i k ->
          if pages.(i) == Bytes.empty then Log_manager.no_records
          else
            Page_repair.chain_suffix ~log:t.log (Page_id.of_int k) ~from:t.horizon
              ~down_to:(Page.lsn pages.(i)) ~no_base:ignore)
        pids
    in
    let chains = (Log_manager.gather_batch t.log suffixes).Log_manager.b_pages in
    Array.iteri
      (fun i s -> if pages.(i) != Bytes.empty then ignore (Page_repair.located ~log:t.log s chains.(i)))
      suffixes;
    let read_lsn = Array.map (fun p -> if p == Bytes.empty then Lsn.nil else Page.lsn p) pages in
    ( { groups; pids; group_ix; failed; pages; read_lsn; suffixes; chains; written = min_int },
      [||] )

  (* The pass's entry holding page [k]: a loser's pages all lie in its
     group. *)
  let entry st k =
    let rec search lo hi =
      if lo >= hi then invalid_arg "Recovery.Instant: a loser's page lies outside its group"
      else
        let mid = (lo + hi) / 2 in
        if st.pids.(mid) = k then mid else if st.pids.(mid) < k then search (mid + 1) hi
        else search lo mid
    in
    search 0 (Array.length st.pids)

  let moved st i = st.pages.(i) != Bytes.empty && not (Lsn.equal (Page.lsn st.pages.(i)) st.read_lsn.(i))

  (* Every page is redone, so settle the pass: undo each group's losers
     with CLRs and End records, group by group in pass order, then force
     the log once over every image the redo or undo changed (WAL rule). *)
  let settle t io st =
    Array.iteri
      (fun gi g ->
        if Int_tbl.length g.losers > 0 && not st.failed.(gi) then begin
          let apply pid f =
            let p = st.pages.(entry st (Page_id.to_int pid)) in
            match f p with Some lsn -> Page.set_lsn p lsn | None -> ()
          in
          let undone = undo_losers ~log:t.log ~losers:g.losers ~write_clr:true ~apply in
          t.stats.undone_ops <- t.stats.undone_ops + undone;
          Obs.add Probes.recovery_undone undone;
          t.stats.ended_losers <- t.stats.ended_losers + Int_tbl.length g.losers
        end)
      st.groups;
    let max_lsn = ref Lsn.nil in
    Array.iteri (fun i p -> if moved st i then max_lsn := Lsn.max !max_lsn (Page.lsn p)) st.pages;
    if not (Lsn.is_nil !max_lsn) then io.io_wal_flush !max_lsn

  (* Write back a changed page; a page that continues the run of the one
     written before it goes out as a sequential write, as
     [Buffer_pool.flush_all] writes its sorted dirty pages. *)
  let write_back io st k page =
    let pid = Page_id.of_int k in
    (match io.io_source.Buffer_pool.write_seq with
    | Some seq when st.written = k - 1 -> seq pid page
    | _ -> io.io_source.Buffer_pool.write pid page);
    st.written <- k

  (* Recover whole groups as one [Page_batch] pass: the gather reads every
     page and fetches every chain, apply redoes each page to the horizon,
     and publish — on the calling domain, ascending — settles the pass at
     its first page and then writes each changed page back, takes it out
     of the backlog and releases it (the touched page belongs to the
     caller, which keeps it).  Returns how many pages left the
     backlog. *)
  let recover t ~on_demand ~span ~seed groups =
    let io =
      match t.io with
      | Some io -> io
      | None -> invalid_arg "Recovery.Instant: no page I/O attached"
    in
    let groups = Array.of_list groups in
    let n = Array.fold_left (fun acc g -> acc + Array.length g.members) 0 groups in
    let pids = Array.make n 0 and group_ix = Array.make n 0 and at = ref 0 in
    Array.iteri
      (fun gi g ->
        Array.iter
          (fun k ->
            pids.(!at) <- k;
            group_ix.(!at) <- gi;
            incr at)
          g.members)
      groups;
    (* Groups arrive by their smallest page, so the entries are already
       ascending unless a group's pages interleave with a later one's. *)
    let sorted = ref true in
    for i = 1 to n - 1 do
      if pids.(i - 1) > pids.(i) then sorted := false
    done;
    let pids, group_ix =
      if !sorted then (pids, group_ix)
      else begin
        let order = Array.init n Fun.id in
        Array.sort (fun a b -> Int.compare pids.(a) pids.(b)) order;
        (Array.map (fun i -> pids.(i)) order, Array.map (fun i -> group_ix.(i)) order)
      end
    in
    let before = backlog t in
    ignore
    @@ Page_batch.run ~clock:(Log_manager.clock t.log) ~span ~chunk:n
         ~gather:(gather t io ~seed groups group_ix)
         ~apply:(fun st i ->
           match st.chains.(i) with
           | Some g when st.pages.(i) != Bytes.empty ->
               Page_repair.redo_chain (Page_id.of_int st.pids.(i)) st.suffixes.(i) g st.pages.(i)
           | _ -> 0)
         ~publish:(fun st i applied ->
           if i = 0 then settle t io st;
           let page = st.pages.(i) in
           if page != Bytes.empty then begin
             let k = st.pids.(i) in
             t.stats.redone_ops <- t.stats.redone_ops + applied;
             Obs.add Probes.recovery_redone applied;
             if moved st i then write_back io st k page;
             leave t ~on_demand k;
             match seed with Some (s, _) when s = k -> () | _ -> Page.release page
           end)
         pids;
    if backlog t = 0 then mark_full_recovery t;
    before - backlog t

  let touch t pid page =
    if t.touching || not (pending_page t pid) then page
    else begin
      t.touching <- true;
      Fun.protect
        ~finally:(fun () -> t.touching <- false)
        (fun () ->
          let k = Page_id.to_int pid in
          ignore
            (recover t ~on_demand:true ~span:"recovery.first_touch" ~seed:(Some (k, page))
               [ group_of t k ]
              : int);
          match t.io with
          | Some io when Page_repair.Quarantine.mem io.io_quarantine pid ->
              Page.release page;
              raise (Page_repair.Quarantined pid)
          | _ -> page)
    end

  (* Whole groups, in the order of their smallest pending page, until
     they hold [budget] pages.  Groups leave the backlog whole, so the
     first pending page at or after the cursor is the smallest of its
     group: with pages pending, a call takes at least one group. *)
  let take t budget =
    while t.cursor < Array.length t.order && not (Int_tbl.mem t.pending t.order.(t.cursor)) do
      t.cursor <- t.cursor + 1
    done;
    let taken = ref [] and n = ref 0 and i = ref t.cursor in
    while !n < budget && !i < Array.length t.order do
      let k = t.order.(!i) in
      (if Int_tbl.mem t.pending k then
         let g = group_of t k in
         if g.members.(0) = k then begin
           taken := g :: !taken;
           n := !n + Array.length g.members
         end);
      incr i
    done;
    List.rev !taken

  let drain t ~max_pages =
    let published = ref 0 in
    while !published < max_pages && backlog t > 0 do
      published :=
        !published
        + recover t ~on_demand:false ~span:"recovery.drain_batch" ~seed:None
            (take t (min pass_pages (max_pages - !published)))
    done;
    if backlog t = 0 then mark_full_recovery t;
    !published
end
