module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Txn_id = Rw_wal.Txn_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

type state = Active | Committing | Committed | Aborted

type txn = { id : Txn_id.t; mutable state : state; mutable last_lsn : Lsn.t }

(* A committing transaction waiting for its commit record to reach stable
   storage.  Acknowledged (state [Committed]) once a flush batch covers
   [commit_lsn]. *)
type waiter = { w_txn : txn; commit_lsn : Lsn.t; w_begin_us : float }

type policy = { max_batch_bytes : int; max_delay_us : float }

type t = {
  log : Log_manager.t;
  locks : Lock_manager.t;
  mutable next_id : Txn_id.t;
  active : (int, txn) Hashtbl.t;
  mutable policy : policy;
  mutable waiters : waiter list; (* newest first *)
  mutable oldest_wait_us : float; (* arrival time of the oldest waiter *)
}

(* The default policy flushes on every commit (a batch of one): exactly the
   pre-group-commit behaviour.  Batching is opt-in via [set_group_commit]. *)
let immediate = { max_batch_bytes = 0; max_delay_us = 0.0 }

let create ~log ~locks =
  {
    log;
    locks;
    next_id = Txn_id.of_int 1;
    active = Hashtbl.create 64;
    policy = immediate;
    waiters = [];
    oldest_wait_us = 0.0;
  }

let locks t = t.locks
let txn_id txn = txn.id
let state txn = txn.state
let last_lsn txn = txn.last_lsn

let set_group_commit t ~max_batch_bytes ~max_delay_us =
  if max_batch_bytes < 0 || max_delay_us < 0.0 then
    invalid_arg "Txn_manager.set_group_commit: negative threshold";
  t.policy <- { max_batch_bytes; max_delay_us }

let pending_commits t = List.length t.waiters

let set_next_id t id = if Txn_id.compare id t.next_id > 0 then t.next_id <- id

let begin_txn t =
  let id = t.next_id in
  t.next_id <- Txn_id.next id;
  let txn = { id; state = Active; last_lsn = Lsn.nil } in
  let lsn =
    Log_manager.append t.log (Log_record.make ~txn:id ~prev_txn_lsn:Lsn.nil Log_record.Begin)
  in
  txn.last_lsn <- lsn;
  Hashtbl.replace t.active (Txn_id.to_int id) txn;
  txn

let active_txns t =
  (* [Committing] txns are deliberately not listed: their fate is decided by
     whether the commit record itself is durable, and a checkpoint's flush
     (which covers the commit record, appended before the checkpoint record)
     makes it so. *)
  Hashtbl.fold
    (fun _ txn acc -> if txn.state = Active then (txn.id, txn.last_lsn) :: acc else acc)
    t.active []
  |> List.sort (fun (a, _) (b, _) -> Txn_id.compare a b)

let active_count t =
  Hashtbl.fold (fun _ txn n -> if txn.state = Active then n + 1 else n) t.active 0

let lock t txn res mode =
  if txn.state <> Active then invalid_arg "Txn_manager.lock: txn not active";
  Lock_manager.acquire t.locks txn.id res mode

let append_on_chain t txn body =
  let lsn =
    Log_manager.append t.log (Log_record.make ~txn:txn.id ~prev_txn_lsn:txn.last_lsn body)
  in
  txn.last_lsn <- lsn;
  lsn

let log_page_op t txn ~page ~prev_page_lsn op =
  if txn.state <> Active then invalid_arg "Txn_manager.log_page_op: txn not active";
  append_on_chain t txn (Log_record.Page_op { page; prev_page_lsn; op })

(* --- group commit --- *)

(* Acknowledge every waiter whose commit record a flush has covered: mark it
   [Committed] and write its [End] record.  Waiters are acked oldest first so
   End records land in commit order. *)
let ack_flushed t =
  match t.waiters with
  | [] -> 0
  | _ ->
      let durable = Log_manager.flushed_lsn t.log in
      let acked, pending = List.partition (fun w -> Lsn.(w.commit_lsn < durable)) t.waiters in
      t.waiters <- pending;
      (match acked with
      | [] -> ()
      | _ ->
          let io = Log_manager.stats t.log in
          io.Io_stats.log_commits_coalesced <-
            io.Io_stats.log_commits_coalesced + List.length acked;
          let now = Sim_clock.now_us (Log_manager.clock t.log) in
          List.iter
            (fun w ->
              w.w_txn.state <- Committed;
              Obs.incr Probes.commits;
              Obs.observe Probes.commit_latency_us (now -. w.w_begin_us);
              ignore (append_on_chain t w.w_txn Log_record.End))
            (List.rev acked);
          if Trace.on () then
            Trace.instant ~cat:"txn"
              ~args:[ ("acked", Trace.Int (List.length acked)) ]
              "txn.group_ack");
      List.length acked

let flush_log t ~upto =
  Log_manager.flush t.log ~upto;
  ignore (ack_flushed t)

let flush_commits t =
  (match t.waiters with
  | [] -> ()
  | { commit_lsn; _ } :: _ -> Log_manager.flush t.log ~upto:commit_lsn);
  ack_flushed t

let commit_begin t txn ~wall_us =
  if txn.state <> Active then invalid_arg "Txn_manager.commit_begin: txn not active";
  (* The state leaves [Active] together with the commit-record append, so a
     failure later in the commit path (e.g. a flush raising on a broken
     device) can never leave an [Active] transaction with a dangling commit
     record on its chain — rolling such a chain back would be malformed.  A
     [Committing] transaction is never rolled back at runtime; if its commit
     record is lost in a crash, recovery undoes it as a loser. *)
  txn.state <- Committing;
  let commit_lsn = append_on_chain t txn (Log_record.Commit { wall_us }) in
  (* Early lock release: correctness needs locks held only until the commit
     record is appended (commit order is fixed from here); durability is
     signalled separately by the acknowledgement. *)
  Lock_manager.release_all t.locks txn.id;
  let now = Sim_clock.now_us (Log_manager.clock t.log) in
  if t.waiters = [] then t.oldest_wait_us <- now;
  t.waiters <- { w_txn = txn; commit_lsn; w_begin_us = now } :: t.waiters;
  commit_lsn

(* Flush-scheduler trigger: batch bytes or batch age, whichever trips first.
   The immediate policy (thresholds 0) always trips. *)
let maybe_flush t =
  match t.waiters with
  | [] -> 0
  | _ ->
      let now = Sim_clock.now_us (Log_manager.clock t.log) in
      if
        Log_manager.unflushed_bytes t.log >= t.policy.max_batch_bytes
        || now -. t.oldest_wait_us >= t.policy.max_delay_us
      then flush_commits t
      else 0

let commit t txn ~wall_us =
  if txn.state <> Active then invalid_arg "Txn_manager.commit: txn not active";
  ignore (commit_begin t txn ~wall_us);
  (* A batch of one (plus any commits already pending). *)
  ignore (flush_commits t)

type page_writer = Page_id.t -> (Page.t -> Lsn.t) -> unit

let undo_one t txn ~write_page ~page ~op ~undo_next =
  match Log_record.invert op with
  | None -> ()
  | Some inverse ->
      write_page page (fun p ->
          let prev_page_lsn = Page.lsn p in
          let clr_lsn =
            append_on_chain t txn
              (Log_record.Clr { page; prev_page_lsn; op = inverse; undo_next })
          in
          Log_record.redo page inverse p;
          Page.set_lsn p clr_lsn;
          clr_lsn)

let rollback t txn ~write_page =
  if txn.state <> Active then invalid_arg "Txn_manager.rollback: txn not active";
  ignore (append_on_chain t txn Log_record.Abort);
  let rec walk lsn =
    if not (Lsn.is_nil lsn) then begin
      let r = Log_manager.read t.log lsn in
      match r.Log_record.body with
      | Log_record.Page_op { page; op; _ } ->
          undo_one t txn ~write_page ~page ~op ~undo_next:r.Log_record.prev_txn_lsn;
          walk r.Log_record.prev_txn_lsn
      | Log_record.Clr { undo_next; _ } ->
          (* Already-compensated work: skip straight past it. *)
          walk undo_next
      | Log_record.Begin -> ()
      | Log_record.Abort -> walk r.Log_record.prev_txn_lsn
      | Log_record.Commit _ | Log_record.End | Log_record.Checkpoint _ ->
          invalid_arg "Txn_manager.rollback: malformed transaction chain"
    end
  in
  walk txn.last_lsn;
  txn.state <- Aborted;
  Lock_manager.release_all t.locks txn.id;
  ignore (append_on_chain t txn Log_record.End)

let finished t txn =
  if txn.state = Active then invalid_arg "Txn_manager.finished: txn still active";
  Hashtbl.remove t.active (Txn_id.to_int txn.id)
