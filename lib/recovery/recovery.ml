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
  losers : (Txn_id.t, Lsn.t) Hashtbl.t;
  dirty_pages : (int, Lsn.t) Hashtbl.t;
  txn_pages : (Txn_id.t, (int, unit) Hashtbl.t) Hashtbl.t;
  redo_start : Lsn.t;
  max_txn_id : Txn_id.t;
  records_scanned : int;
}

(* The priced read of the start checkpoint, if [start] is one: the seed
   record and where the scan proper begins. *)
let analysis_head ~log ~start ~upto =
  if Lsn.(start >= upto) || not (Log_manager.mem log start) then (None, start)
  else
    match (Log_manager.peek_record log start).Log_record.p_kind with
    | Log_record.K_checkpoint ->
        let r = Log_manager.read log start in
        (Some r, Log_manager.next_lsn_after log start)
    | _ -> (None, start)

(* Analysis only needs record headers (txn, kind, page); the one exception
   is checkpoint records, whose embedded tables require a decode.  The
   master checkpoint — always the first record of the range — is decoded
   once up front by [analysis_head] and arrives as [seed]; any later
   checkpoints inside the range use the on-demand thunk.  Everything else
   is peeked, so the scan never allocates row payloads. *)
let analysis_scan ~log ~seed ~scan_from ~upto =
  let losers = Hashtbl.create 16 in
  let dirty_pages = Hashtbl.create 64 in
  let txn_pages = Hashtbl.create 16 in
  let max_txn = ref Txn_id.nil in
  let scanned = ref 0 in
  let see_txn txn = if Txn_id.compare txn !max_txn > 0 then max_txn := txn in
  let see_page page lsn =
    let k = Page_id.to_int page in
    if not (Hashtbl.mem dirty_pages k) then Hashtbl.replace dirty_pages k lsn
  in
  let note_txn_page txn page =
    let pages =
      match Hashtbl.find_opt txn_pages txn with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 8 in
          Hashtbl.replace txn_pages txn h;
          h
    in
    Hashtbl.replace pages (Page_id.to_int page) ()
  in
  let seed_checkpoint r =
    match r.Log_record.body with
    | Log_record.Checkpoint { active_txns; dirty_pages = dpt; _ } ->
        List.iter
          (fun (t, last) ->
            see_txn t;
            if not (Hashtbl.mem losers t) then Hashtbl.replace losers t last)
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
      match pk.Log_record.p_kind with
      | Log_record.K_checkpoint -> seed_checkpoint (decode ())
      | Log_record.K_begin -> Hashtbl.replace losers txn lsn
      | Log_record.K_commit | Log_record.K_end -> Hashtbl.remove losers txn
      | Log_record.K_abort -> if Hashtbl.mem losers txn then Hashtbl.replace losers txn lsn
      | Log_record.K_page_op _ | Log_record.K_clr _ ->
          if not (Txn_id.is_nil txn) then begin
            Hashtbl.replace losers txn lsn;
            note_txn_page txn pk.Log_record.p_page
          end;
          see_page pk.Log_record.p_page lsn);
  let redo_start =
    Hashtbl.fold (fun _ rec_lsn acc -> Lsn.min rec_lsn acc) dirty_pages upto
  in
  { losers; dirty_pages; txn_pages; redo_start; max_txn_id = !max_txn; records_scanned = !scanned }

let analyze ~log ~start ~upto =
  let seed, scan_from = analysis_head ~log ~start ~upto in
  analysis_scan ~log ~seed ~scan_from ~upto

let loser_pages analysis =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun txn _ ->
      match Hashtbl.find_opt analysis.txn_pages txn with
      | Some pages -> Hashtbl.iter (fun p () -> Hashtbl.replace seen p ()) pages
      | None -> ())
    analysis.losers;
  Hashtbl.fold (fun p () acc -> Page_id.of_int p :: acc) seen []

type losers = {
  in_flight : (Txn_id.t, Lsn.t) Hashtbl.t;
  in_flight_pages : Page_id.t list;
  loser_scan : bool;
}

(* Which transactions were in flight at [upto], asked of the control-record
   directory.  Every transaction logs Begin before its first page record,
   and a checkpoint lists every transaction then active, so from a start
   checkpoint (its active set) or from the log's origin (nothing) the
   Begin/Commit/Abort/End entries alone track the in-flight set: Begin
   adds, Commit or End removes, Abort keeps.  When that set is empty at
   [upto] the analysis scan would find no loser, and only its price is
   charged.  A loser's last LSN and pages live in page records, so when
   anything is in flight — or the directory cannot answer exactly: a
   start that is neither, a checkpoint inside the range, an [upto] off a
   record boundary — the analysis scan runs after all, from the same
   priced seed read. *)
let losers_at ~log ~start ~upto =
  let seed, scan_from = analysis_head ~log ~start ~upto in
  let decidable =
    (Option.is_some seed || (Lsn.to_int start = 1 && Lsn.to_int (Log_manager.first_lsn log) = 1))
    && (Lsn.(upto >= Log_manager.end_lsn log) || Log_manager.mem log upto)
  in
  let none_in_flight () =
    let live = Hashtbl.create 16 in
    (match seed with
    | Some { Log_record.body = Log_record.Checkpoint { active_txns; _ }; _ } ->
        List.iter (fun (txn, _) -> Hashtbl.replace live txn ()) active_txns
    | _ -> ());
    let exact = ref true in
    Log_manager.iter_controls log ~from:scan_from (fun lsn kind txn _ ->
        Lsn.(lsn < upto)
        && begin
             (match kind with
             | Log_record.K_begin -> Hashtbl.replace live txn ()
             | Log_record.K_commit | Log_record.K_end -> Hashtbl.remove live txn
             | Log_record.K_checkpoint -> exact := false
             | _ -> ());
             !exact
           end);
    !exact && Hashtbl.length live = 0
  in
  if Lsn.(start >= upto) || (decidable && none_in_flight ()) then begin
    Log_manager.charge_scan log ~from:scan_from ~upto;
    { in_flight = Hashtbl.create 1; in_flight_pages = []; loser_scan = false }
  end
  else begin
    Obs.incr Probes.snapshot_loser_scans;
    let a = analysis_scan ~log ~seed ~scan_from ~upto in
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
      match Hashtbl.find_opt analysis.dirty_pages (Page_id.to_int page) with
      | Some rec_lsn -> Lsn.(lsn >= rec_lsn)
      | None -> false)

let undo_losers ~log ~losers ~write_clr ~apply =
  let next_undo = Hashtbl.copy losers in
  let tails = Hashtbl.copy losers in
  let undone = ref 0 in
  let pick () =
    Hashtbl.fold
      (fun txn lsn acc ->
        match acc with Some (_, best) when Lsn.(best >= lsn) -> acc | _ -> Some (txn, lsn))
      next_undo None
  in
  let finish txn =
    if write_clr then begin
      let tail = Hashtbl.find tails txn in
      ignore (Log_manager.append log (Log_record.make ~txn ~prev_txn_lsn:tail Log_record.End))
    end;
    Hashtbl.remove next_undo txn;
    Hashtbl.remove tails txn
  in
  let undo_op txn ~page ~op ~undo_next =
    match Log_record.invert op with
    | None -> ()
    | Some inverse ->
        apply page (fun p ->
            incr undone;
            if write_clr then begin
              let prev_page_lsn = Page.lsn p in
              let tail = Hashtbl.find tails txn in
              let clr_lsn =
                Log_manager.append log
                  (Log_record.make ~txn ~prev_txn_lsn:tail
                     (Log_record.Clr { page; prev_page_lsn; op = inverse; undo_next }))
              in
              Hashtbl.replace tails txn clr_lsn;
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
    | Some (txn, lsn) ->
        if Lsn.is_nil lsn then finish txn
        else begin
          let r = Log_manager.read log lsn in
          (match r.Log_record.body with
          | Log_record.Begin -> finish txn
          | Log_record.Page_op { page; op; _ } ->
              undo_op txn ~page ~op ~undo_next:r.Log_record.prev_txn_lsn;
              Hashtbl.replace next_undo txn r.Log_record.prev_txn_lsn
          | Log_record.Clr { undo_next; _ } -> Hashtbl.replace next_undo txn undo_next
          | Log_record.Abort | Log_record.Commit _ | Log_record.End | Log_record.Checkpoint _ ->
              Hashtbl.replace next_undo txn r.Log_record.prev_txn_lsn);
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
  let analysis = analyze ~log ~start ~upto in
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
  stats.ended_losers <- Hashtbl.length losers;
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
    io_read : Page_id.t -> Page.t;
    io_write : Page_id.t -> Page.t -> unit;
    io_wal_flush : Lsn.t -> unit;
  }

  type t = {
    log : Log_manager.t;
    horizon : Lsn.t;
    stats : stats;
    pending : (int, unit) Hashtbl.t;
    loser_pages : (Txn_id.t, (int, unit) Hashtbl.t) Hashtbl.t;
    open_losers : (Txn_id.t, Lsn.t) Hashtbl.t;
    now_us : unit -> float;
    t_start_us : float;
    mutable io : io option;
    mutable touching : bool;
  }

  let backlog t = Hashtbl.length t.pending
  let pending_page t pid = Hashtbl.mem t.pending (Page_id.to_int pid)
  let stats t = t.stats

  (* Every page an in-flight transaction touched, including before the
     analysis start: the scanned region's [txn_pages] only covers records
     at or after the master checkpoint, so walk the rest of the chain —
     each record priced as a read, but only its header peeked. *)
  let txn_page_set ~log ~analysis txn last =
    let pages =
      match Hashtbl.find_opt analysis.txn_pages txn with
      | Some h -> Hashtbl.copy h
      | None -> Hashtbl.create 8
    in
    let rec walk lsn =
      if not (Lsn.is_nil lsn) then begin
        Log_manager.charge_read log lsn;
        let pk = Log_manager.peek_record log lsn in
        if Log_record.is_page_kind pk.Log_record.p_kind then
          Hashtbl.replace pages (Page_id.to_int pk.Log_record.p_page) ();
        if pk.Log_record.p_kind <> Log_record.K_begin then walk pk.Log_record.p_prev_txn_lsn
      end
    in
    walk last;
    pages

  let open_ ?(now_us = fun () -> 0.0) ~log () =
    let t_start_us, horizon, stats = prologue ~now_us ~log in
    let analysis = stats.analysis in
    let pending = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace pending k ()) analysis.dirty_pages;
    let loser_pages = Hashtbl.create 8 in
    Hashtbl.iter
      (fun txn last ->
        let pages = txn_page_set ~log ~analysis txn last in
        Hashtbl.iter (fun k () -> Hashtbl.replace pending k ()) pages;
        Hashtbl.replace loser_pages txn pages)
      analysis.losers;
    Obs.gauge_add Probes.recovery_backlog (float_of_int (Hashtbl.length pending));
    {
      log;
      horizon;
      stats;
      pending;
      loser_pages;
      open_losers = Hashtbl.copy analysis.losers;
      now_us;
      t_start_us;
      io = None;
      touching = false;
    }

  let attach t ~read ~write ~wal_flush =
    t.io <- Some { io_read = read; io_write = write; io_wal_flush = wal_flush }

  let mark_full_recovery t =
    if t.stats.time_to_full_recovery_us = 0.0 then
      t.stats.time_to_full_recovery_us <- t.now_us () -. t.t_start_us

  let mark_open t =
    if t.stats.time_to_first_query_us = 0.0 then
      t.stats.time_to_first_query_us <- t.now_us () -. t.t_start_us;
    if backlog t = 0 then mark_full_recovery t

  (* Redo one page in place: replay its chain over (page-LSN, horizon] —
     the same page-LSN guard as the log-scan redo, reading only this
     page's records. *)
  let redo_page t pid p =
    let applied =
      Page_repair.replay_chain ~log:t.log pid ~from:t.horizon ~down_to:(Page.lsn p)
        ~no_base:ignore p
    in
    t.stats.redone_ops <- t.stats.redone_ops + applied;
    Obs.add Probes.recovery_redone applied;
    applied

  (* The recovery unit is a page group: the requested page plus, transitively,
     every page sharing an in-flight transaction with one already in the
     group.  Undoing a loser must be all-or-nothing — its CLR chain walks the
     whole transaction newest-first, so a partially-undone transaction would
     leave [undo_next] pointing into territory a later crash recovery could
     not interpret — and that can force sibling pages into the same unit. *)
  let group_of t pid0 =
    let pages = Hashtbl.create 8 in
    let txns = Hashtbl.create 4 in
    Hashtbl.replace pages (Page_id.to_int pid0) ();
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun txn tpages ->
          if not (Hashtbl.mem txns txn) then
            if Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem pages k) tpages false then begin
              Hashtbl.replace txns txn ();
              changed := true;
              Hashtbl.iter (fun k () -> Hashtbl.replace pages k ()) tpages
            end)
        t.loser_pages
    done;
    (pages, txns)

  (* Recover one page group: read every page (any already-read seed page is
     reused), redo each to the horizon, undo the group's losers with CLRs
     and End records, then publish — force the log covering everything just
     applied and write the pages back (WAL rule), so the recovered images
     are durable and the pages leave the backlog exactly once.  The seed
     page belongs to the caller (it enters the pool); every page read here
     is released once written back.  Returns the pages published. *)
  let recover_group t ~on_demand pid0 seed_page =
    let io =
      match t.io with
      | Some io -> io
      | None -> invalid_arg "Recovery.Instant: no page I/O attached"
    in
    let ts = if Trace.on () then Trace.now () else 0.0 in
    let pages, txns = group_of t pid0 in
    let local = Hashtbl.create 8 in
    (match seed_page with
    | Some p -> Hashtbl.replace local (Page_id.to_int pid0) p
    | None -> ());
    let get k =
      match Hashtbl.find_opt local k with
      | Some p -> p
      | None ->
          let p = io.io_read (Page_id.of_int k) in
          Hashtbl.replace local k p;
          p
    in
    let sorted = Hashtbl.fold (fun k () acc -> k :: acc) pages [] |> List.sort compare in
    (* Read everything first: page I/O failures (quarantine) must surface
       before the first CLR is appended, keeping undo all-or-nothing. *)
    List.iter (fun k -> ignore (get k)) sorted;
    let changed = Hashtbl.create 8 in
    List.iter
      (fun k -> if redo_page t (Page_id.of_int k) (get k) > 0 then Hashtbl.replace changed k ())
      sorted;
    if Hashtbl.length txns > 0 then begin
      let subset = Hashtbl.create 4 in
      Hashtbl.iter
        (fun txn () ->
          match Hashtbl.find_opt t.open_losers txn with
          | Some last -> Hashtbl.replace subset txn last
          | None -> ())
        txns;
      let apply pid f =
        let p = get (Page_id.to_int pid) in
        match f p with
        | Some lsn ->
            Page.set_lsn p lsn;
            Hashtbl.replace changed (Page_id.to_int pid) ()
        | None -> ()
      in
      let undone = undo_losers ~log:t.log ~losers:subset ~write_clr:true ~apply in
      t.stats.undone_ops <- t.stats.undone_ops + undone;
      Obs.add Probes.recovery_undone undone;
      Hashtbl.iter
        (fun txn () ->
          if Hashtbl.mem t.open_losers txn then begin
            Hashtbl.remove t.open_losers txn;
            Hashtbl.remove t.loser_pages txn;
            t.stats.ended_losers <- t.stats.ended_losers + 1
          end)
        txns
    end;
    (* Publish: WAL rule first, then write back every page whose image the
       redo or undo actually changed. *)
    let max_lsn =
      Hashtbl.fold (fun k () acc -> Lsn.max acc (Page.lsn (get k))) changed Lsn.nil
    in
    if not (Lsn.is_nil max_lsn) then io.io_wal_flush max_lsn;
    let published = ref 0 in
    List.iter
      (fun k ->
        if Hashtbl.mem changed k then io.io_write (Page_id.of_int k) (get k);
        if Hashtbl.mem t.pending k then begin
          Hashtbl.remove t.pending k;
          incr published;
          Obs.gauge_add Probes.recovery_backlog (-1.0);
          if on_demand then Obs.incr Probes.recovery_pages_on_demand
        end)
      sorted;
    if Trace.on () then
      Trace.complete ~cat:"recovery" ~ts
        ~args:
          [
            ("page", Trace.Int (Page_id.to_int pid0));
            ("group", Trace.Int (List.length sorted));
            ("on_demand", Trace.Int (if on_demand then 1 else 0));
          ]
        "recovery.first_touch";
    if backlog t = 0 then mark_full_recovery t;
    Hashtbl.iter
      (fun k p -> if Option.is_none seed_page || k <> Page_id.to_int pid0 then Page.release p)
      local;
    !published

  let touch t pid page =
    if t.touching || not (pending_page t pid) then page
    else begin
      t.touching <- true;
      Fun.protect
        ~finally:(fun () -> t.touching <- false)
        (fun () ->
          ignore (recover_group t ~on_demand:true pid (Some page) : int);
          page)
    end

  let drain t ~max_pages =
    let published = ref 0 in
    let unpend k =
      if Hashtbl.mem t.pending k then begin
        Hashtbl.remove t.pending k;
        incr published;
        Obs.gauge_add Probes.recovery_backlog (-1.0)
      end
    in
    while !published < max_pages && backlog t > 0 do
      let k = Hashtbl.fold (fun k () acc -> min k acc) t.pending max_int in
      match recover_group t ~on_demand:false (Page_id.of_int k) None with
      | n -> published := !published + n
      | exception Page_repair.Quarantined qpid ->
          (* Give up on the damaged page so the rest of the backlog still
             drains; reads of it keep failing with the typed error. *)
          unpend (Page_id.to_int qpid);
          unpend k
    done;
    if backlog t = 0 then mark_full_recovery t;
    !published
end
