(* ARIES recovery tests: checkpoints, analysis, redo idempotence, loser
   rollback across crashes — exercised through the engine's crash
   simulation. *)

module Lsn = Rw_storage.Lsn
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Log_manager = Rw_wal.Log_manager
module Recovery = Rw_recovery.Recovery
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]

let mk_db ?(name = "rec") () =
  let clock = Sim_clock.create () in
  Database.create ~name ~clock ~media:Media.ram ()

let seed db n =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to n do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "v%d" i) ]
      done)

let rows db =
  let acc = ref [] in
  Database.scan db ~table:"t" ~f:(fun r -> acc := r :: !acc);
  List.rev !acc

let test_committed_survive_crash () =
  let db = mk_db () in
  seed db 50;
  (* No checkpoint, no page flushes: everything lives in log + pool. *)
  let before = rows db in
  let db = Database.crash_and_reopen db in
  check "all committed rows recovered" true (rows db = before);
  match Database.last_recovery_stats db with
  | Some stats -> check "redo happened" true (stats.Recovery.redone_ops > 0)
  | None -> Alcotest.fail "expected recovery stats"

let test_uncommitted_rolled_back () =
  let db = mk_db () in
  seed db 10;
  let txn = Database.begin_txn db in
  Database.insert db txn ~table:"t" [ Row.Int 999L; Row.Text "loser" ];
  Database.delete db txn ~table:"t" ~key:5L;
  (* Force the loser's log records to disk so recovery sees them, without
     committing. *)
  Log_manager.flush_all (Database.log db);
  let db = Database.crash_and_reopen db in
  check "loser insert gone" true (Database.get db ~table:"t" ~key:999L = None);
  check "loser delete undone" true (Database.get db ~table:"t" ~key:5L <> None);
  check_int "ten rows" 10 (List.length (rows db));
  match Database.last_recovery_stats db with
  | Some stats ->
      check_int "one loser" 1 stats.Recovery.ended_losers;
      check "ops undone" true (stats.Recovery.undone_ops > 0)
  | None -> Alcotest.fail "expected recovery stats"

let test_unflushed_loser_simply_vanishes () =
  let db = mk_db () in
  seed db 10;
  let txn = Database.begin_txn db in
  Database.insert db txn ~table:"t" [ Row.Int 777L; Row.Text "volatile" ];
  (* Not flushed: crash drops the records entirely. *)
  let db = Database.crash_and_reopen db in
  check "nothing to undo" true (Database.get db ~table:"t" ~key:777L = None);
  check_int "ten rows" 10 (List.length (rows db))

let test_checkpoint_bounds_analysis () =
  let db = mk_db () in
  seed db 30;
  ignore (Database.checkpoint db);
  let log = Database.log db in
  let master = Log_manager.last_checkpoint log in
  check "master set" true (not (Lsn.is_nil master));
  Database.with_txn db (fun txn ->
      Database.insert db txn ~table:"t" [ Row.Int 31L; Row.Text "after-ckpt" ]);
  let db = Database.crash_and_reopen db in
  (match Database.last_recovery_stats db with
  | Some stats ->
      (* Analysis only scans from the checkpoint, not the whole log. *)
      check "bounded scan" true (stats.Recovery.analysis.Recovery.records_scanned < 40)
  | None -> Alcotest.fail "expected stats");
  check_int "31 rows" 31 (List.length (rows db))

let test_double_crash_idempotent () =
  let db = mk_db () in
  seed db 20;
  let txn = Database.begin_txn db in
  Database.insert db txn ~table:"t" [ Row.Int 888L; Row.Text "loser" ];
  Log_manager.flush_all (Database.log db);
  let db = Database.crash_and_reopen db in
  let after_first = rows db in
  (* Crash again immediately: recovery (incl. its CLRs) must be stable. *)
  let db = Database.crash_and_reopen db in
  check "second recovery is a no-op on state" true (rows db = after_first);
  let db = Database.crash_and_reopen db in
  check "third too" true (rows db = after_first)

let test_crash_mid_rollback_resumes () =
  let db = mk_db () in
  seed db 10;
  (* Build a loser with several operations, flush, crash.  Recovery rolls
     it back with CLRs; crash again mid-way is simulated by crashing right
     after recovery flushed its CLRs — the second recovery must skip the
     already-compensated prefix via undo_next. *)
  let txn = Database.begin_txn db in
  for i = 100 to 110 do
    Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "loser" ]
  done;
  Log_manager.flush_all (Database.log db);
  let db = Database.crash_and_reopen db in
  check_int "rolled back" 10 (List.length (rows db));
  let db = Database.crash_and_reopen db in
  check_int "still ten" 10 (List.length (rows db))

let test_txn_ids_not_reused_after_recovery () =
  let db = mk_db () in
  seed db 5;
  let log = Database.log db in
  let max_txn_before = ref Rw_wal.Txn_id.nil in
  Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log) ~upto:(Log_manager.end_lsn log)
    (fun _ _ decode ->
      let r = decode () in
      if Rw_wal.Txn_id.compare r.Rw_wal.Log_record.txn !max_txn_before > 0 then
        max_txn_before := r.Rw_wal.Log_record.txn);
  let db = Database.crash_and_reopen db in
  Database.with_txn db (fun txn ->
      check "fresh txn id above all logged ids" true
        (Rw_wal.Txn_id.compare (Rw_txn.Txn_manager.txn_id txn) !max_txn_before > 0))

let test_recovery_with_drop_and_realloc () =
  let db = mk_db () in
  seed db 40;
  Database.with_txn db (fun txn -> Database.drop_table db txn "t");
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t2" ~columns:cols ());
      for i = 1 to 40 do
        Database.insert db txn ~table:"t2" [ Row.Int (Int64.of_int i); Row.Text "fresh" ]
      done);
  let db = Database.crash_and_reopen db in
  check "old table gone" true (Database.table db "t" = None);
  check_int "new table intact" 40 (Database.row_count db ~table:"t2")

(* Fuzz: interleave random committed/uncommitted work with crashes at
   random points; after every recovery all committed effects must be
   present and all uncommitted effects absent. *)
let test_crash_fuzz () =
  let rng = Rw_storage.Prng.create 31337 in
  let db = ref (mk_db ()) in
  Database.with_txn !db (fun txn ->
      ignore (Database.create_table !db txn ~table:"t" ~columns:cols ()));
  let model = Hashtbl.create 256 in
  for _round = 1 to 15 do
    (* Committed batch. *)
    let n = 1 + Rw_storage.Prng.int rng 20 in
    Database.with_txn !db (fun txn ->
        for _ = 1 to n do
          let k = Rw_storage.Prng.int rng 200 in
          let key = Int64.of_int k in
          if Hashtbl.mem model k then
            if Rw_storage.Prng.int rng 2 = 1 then begin
              Database.delete !db txn ~table:"t" ~key;
              Hashtbl.remove model k
            end
            else begin
              let v = Rw_storage.Prng.alpha_string rng 20 in
              Database.update !db txn ~table:"t" [ Row.Int key; Row.Text v ];
              Hashtbl.replace model k v
            end
          else begin
            let v = Rw_storage.Prng.alpha_string rng 20 in
            Database.insert !db txn ~table:"t" [ Row.Int key; Row.Text v ];
            Hashtbl.replace model k v
          end
        done);
    (* Sometimes a checkpoint; sometimes an uncommitted loser (flushed or
       not); then crash with 50% probability. *)
    if Rw_storage.Prng.int rng 100 < 30 then ignore (Database.checkpoint !db);
    if Rw_storage.Prng.int rng 100 < 60 then begin
      let txn = Database.begin_txn !db in
      for _ = 1 to 1 + Rw_storage.Prng.int rng 5 do
        let k = 1000 + Rw_storage.Prng.int rng 50 in
        (try Database.insert !db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text "loser" ]
         with Rw_access.Btree.Duplicate_key _ -> ())
      done;
      if Rw_storage.Prng.int rng 2 = 1 then Log_manager.flush_all (Database.log !db)
      (* else: the loser's tail is lost with the crash *)
    end;
    if Rw_storage.Prng.int rng 2 = 1 then db := Database.crash_and_reopen !db
    else begin
      (* No crash: roll the loser back if one is still open. *)
      match Rw_txn.Txn_manager.active_txns (Database.txn_manager !db) with
      | [] -> ()
      | _ -> db := Database.crash_and_reopen !db
    end;
    (* Validate against the model. *)
    let actual = ref 0 in
    Database.scan !db ~table:"t" ~f:(fun row ->
        incr actual;
        match row with
        | [ Row.Int k; Row.Text v ] ->
            let k = Int64.to_int k in
            if k < 1000 then begin
              match Hashtbl.find_opt model k with
              | Some v' when v' = v -> ()
              | _ -> Alcotest.failf "key %d diverged from model" k
            end
            else Alcotest.failf "loser row %d survived" k
        | _ -> Alcotest.fail "bad row shape")
    done;
  check_int "final cardinality" (Hashtbl.length model) (Database.row_count !db ~table:"t")

let test_snapshot_after_recovery () =
  let db = mk_db () in
  let clock = Database.clock db in
  seed db 20;
  Rw_storage.Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Rw_storage.Sim_clock.now_us clock in
  Database.with_txn db (fun txn -> Database.delete db txn ~table:"t" ~key:5L);
  let db = Database.crash_and_reopen db in
  (* The log survived the crash, so the past is still reachable. *)
  let snap = Database.create_as_of_snapshot db ~name:"past" ~wall_us:t_past in
  check "pre-crash history visible" true (Database.get snap ~table:"t" ~key:5L <> None);
  check "primary still lacks the row" true (Database.get db ~table:"t" ~key:5L = None)

(* --- as-of creation from the control-record directory vs the scans --- *)

module Txn_id = Rw_wal.Txn_id
module Log_record = Rw_wal.Log_record
module Page_id = Rw_storage.Page_id
module Io_stats = Rw_storage.Io_stats
module Split_lsn = Rw_core.Split_lsn

(* One step of a generated history, interpreted by [run_steps]. *)
type step =
  | S_begin
  | S_op of int * int  (** an active txn (by index) writes a page *)
  | S_commit of int  (** an active txn appends its Commit; its End waits for [S_ack] *)
  | S_commit_at of int * int
      (** a commit whose caller gives its wall time, up to 3 ms either side
          of the clock, as a selective repair's may: wall times go
          backwards, and a checkpoint can come after a later commit *)
  | S_ack  (** End records for every committed txn *)
  | S_abort of int  (** an active txn appends Abort and starts rolling back *)
  | S_compensate of int  (** an aborting txn logs one CLR, or its End once done *)
  | S_checkpoint
  | S_tick of int  (** advance the clock (0 leaves commit walls tied) *)
  | S_fpi of int  (** a page image outside any transaction *)
  | S_flush

(* What happens to the log after a run of steps. *)
type event =
  | E_none
  | E_cut of int  (** truncate_before at this per-mille of the log *)
  | E_crash  (** crash (the tail may tear), then repair_tail *)
  | E_truncate_from of int  (** truncate_from at this per-mille of the log *)
  | E_restore  (** carry on in a log rebuilt by restore_entries *)
  | E_ingest  (** carry on in a replica's log, shipped by ingest_entries *)

let step_gen =
  let open QCheck.Gen in
  let pick = int_bound 7 in
  frequency
    [
      (3, return S_begin);
      (6, map2 (fun t p -> S_op (t, p)) pick (int_bound 5));
      (3, map (fun t -> S_commit t) pick);
      (1, map2 (fun t d -> S_commit_at (t, d)) pick (int_range (-3) 3));
      (2, return S_ack);
      (1, map (fun t -> S_abort t) pick);
      (4, map (fun t -> S_compensate t) pick);
      (1, return S_checkpoint);
      (3, map (fun n -> S_tick n) (int_bound 2));
      (1, map (fun p -> S_fpi p) (int_bound 5));
      (1, return S_flush);
    ]

let event_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, return E_none);
      (2, map (fun c -> E_cut c) (int_bound 999));
      (3, return E_crash);
      (2, map (fun c -> E_truncate_from c) (int_bound 999));
      (1, return E_restore);
      (1, return E_ingest);
    ]

type history = {
  phases : (step list * event) list;  (** each run of steps, then its event *)
  probes : int list;  (** extra target walls, per-mille of the history's span *)
}

let history_gen =
  let open QCheck.Gen in
  map2
    (fun phases probes -> { phases; probes })
    (list_size (1 -- 4) (pair (list_size (5 -- 60) step_gen) event_gen))
    (list_size (0 -- 4) (int_bound 1000))

let show_step = function
  | S_begin -> "begin"
  | S_op (t, p) -> Printf.sprintf "op(%d,%d)" t p
  | S_commit t -> Printf.sprintf "commit(%d)" t
  | S_commit_at (t, d) -> Printf.sprintf "commit_at(%d,%d)" t d
  | S_ack -> "ack"
  | S_abort t -> Printf.sprintf "abort(%d)" t
  | S_compensate t -> Printf.sprintf "compensate(%d)" t
  | S_checkpoint -> "checkpoint"
  | S_tick n -> Printf.sprintf "tick(%d)" n
  | S_fpi p -> Printf.sprintf "fpi(%d)" p
  | S_flush -> "flush"

let show_event = function
  | E_none -> "-"
  | E_cut c -> Printf.sprintf "cut(%d)" c
  | E_crash -> "crash"
  | E_truncate_from c -> Printf.sprintf "truncate_from(%d)" c
  | E_restore -> "restore"
  | E_ingest -> "ingest"

let history_arb =
  QCheck.make history_gen ~print:(fun h ->
      Printf.sprintf "phases=[%s] probes=[%s]"
        (String.concat " | "
           (List.map
              (fun (steps, ev) ->
                Printf.sprintf "%s => %s" (String.concat ";" (List.map show_step steps)) (show_event ev))
              h.phases))
        (String.concat ";" (List.map string_of_int h.probes)))

type txn = {
  id : Txn_id.t;
  first : Lsn.t;  (** its Begin *)
  mutable lsns : Lsn.t list;  (** every record it logged, newest first *)
  mutable ops : (Page_id.t * Log_record.op * Lsn.t * Lsn.t) list;
      (** page records not yet compensated, newest first: page, op, the
          record before it, its own LSN *)
  mutable abort_at : Lsn.t;
  mutable commit_at : Lsn.t;
  mutable end_at : Lsn.t;
}

(* Two logs given the same records and the same events, so that their
   block caches stay equal: the old walks run on [a], the searches on
   [b], and every charge of either must be the other's. *)
type twin = {
  wall : Sim_clock.t;  (** the source of commit and checkpoint walls *)
  mutable a : Log_manager.t;
  mutable b : Log_manager.t;
  mutable txns : txn list;  (** oldest first *)
  mutable next : int;
}

let mk_log ?(seed = 0) () =
  (* small segments, so straddles and multi-segment walks occur; a crash
     tears the tail half the time *)
  Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ssd ~cache_blocks:4 ~block_bytes:256
    ~segment_bytes:512
    ~fault_plan:(Rw_storage.Fault_plan.create ~torn_log_tail_rate:0.5 ~seed ())
    ()

let active w = List.filter (fun t -> Lsn.is_nil t.commit_at && Lsn.is_nil t.end_at) w.txns
let last t = List.hd t.lsns

(* The model after a tail drop to [e]: records at or above it are gone,
   and so are the transactions they began; the others carry on from
   what is left of them — a commit or End that was lost puts them back
   in flight. *)
let dropped_to w e =
  let kept l = if Lsn.(l >= e) then Lsn.nil else l in
  w.txns <- List.filter (fun t -> Lsn.(t.first < e)) w.txns;
  List.iter
    (fun t ->
      t.lsns <- List.filter (fun l -> Lsn.(l < e)) t.lsns;
      t.ops <- List.filter (fun (_, _, _, l) -> Lsn.(l < e)) t.ops;
      t.abort_at <- kept t.abort_at;
      t.commit_at <- kept t.commit_at;
      t.end_at <- kept t.end_at)
    w.txns

(* Interpret the steps onto both logs: interleaved transactions, commits
   whose End lands later (group commit), rollbacks interleaved with other
   work, checkpoints listing the transactions active at the time,
   transactions left open at the end. *)
let run_steps w steps =
  let app ?(txn = Txn_id.nil) ?(prev = Lsn.nil) body =
    let r = Log_record.make ~txn ~prev_txn_lsn:prev body in
    let l = Log_manager.append w.a r in
    if not (Lsn.equal l (Log_manager.append w.b r)) then Alcotest.fail "the twin logs diverged";
    l
  in
  let tapp t body =
    let l = app ~txn:t.id ~prev:(last t) body in
    t.lsns <- l :: t.lsns;
    l
  in
  let nth_active ~aborting k =
    match List.filter (fun t -> Lsn.is_nil t.abort_at <> aborting) (active w) with
    | [] -> None
    | l -> Some (List.nth l (k mod List.length l))
  in
  let commit k wall =
    match nth_active ~aborting:false k with
    | Some t -> t.commit_at <- tapp t (Log_record.Commit { wall_us = wall })
    | None -> ()
  in
  let now () = Sim_clock.now_us w.wall in
  List.iter
    (function
      | S_begin ->
          if List.length (active w) < 6 then begin
            let id = Txn_id.of_int w.next in
            w.next <- w.next + 1;
            let l = app ~txn:id Log_record.Begin in
            w.txns <-
              w.txns
              @ [
                  {
                    id;
                    first = l;
                    lsns = [ l ];
                    ops = [];
                    abort_at = Lsn.nil;
                    commit_at = Lsn.nil;
                    end_at = Lsn.nil;
                  };
                ]
          end
      | S_op (k, p) -> (
          match nth_active ~aborting:false k with
          | Some t ->
              let page = Page_id.of_int (10 + p) in
              let op = Log_record.Set_header { field = Log_record.Special; before = 0L; after = 1L } in
              let prev = last t in
              let l = tapp t (Log_record.Page_op { page; prev_page_lsn = Lsn.nil; op }) in
              t.ops <- (page, op, prev, l) :: t.ops
          | None -> ())
      | S_commit k -> commit k (now ())
      | S_commit_at (k, d) -> commit k (now () +. float_of_int (d * 1000))
      | S_ack ->
          List.iter
            (fun t ->
              if (not (Lsn.is_nil t.commit_at)) && Lsn.is_nil t.end_at then
                t.end_at <- tapp t Log_record.End)
            w.txns
      | S_abort k -> (
          match nth_active ~aborting:false k with
          | Some t -> t.abort_at <- tapp t Log_record.Abort
          | None -> ())
      | S_compensate k -> (
          match nth_active ~aborting:true k with
          | Some t -> (
              match t.ops with
              | (page, op, undo_next, _) :: rest ->
                  let op = Option.get (Log_record.invert op) in
                  ignore (tapp t (Log_record.Clr { page; prev_page_lsn = Lsn.nil; op; undo_next }));
                  t.ops <- rest
              | [] -> t.end_at <- tapp t Log_record.End)
          | None -> ())
      | S_checkpoint ->
          let lsn =
            app
              (Log_record.Checkpoint
                 {
                   wall_us = now ();
                   active_txns = List.map (fun t -> (t.id, last t)) (active w);
                   dirty_pages = [];
                 })
          in
          Log_manager.set_last_checkpoint w.a lsn;
          Log_manager.set_last_checkpoint w.b lsn
      | S_tick n -> Sim_clock.advance_us w.wall (float_of_int (n * 1000))
      | S_fpi p ->
          ignore
            (app
               (Log_record.Page_op
                  {
                    page = Page_id.of_int (10 + p);
                    prev_page_lsn = Lsn.nil;
                    op = Log_record.Full_image { image = String.make Rw_storage.Page.page_size 'f' };
                  }))
      | S_flush ->
          Log_manager.flush_all w.a;
          Log_manager.flush_all w.b)
    steps

(* The record at per-mille [c] of the retained log, if any; the scan
   that finds it is charged to both logs. *)
let lsn_at w c =
  let lsns log =
    let acc = ref [] in
    Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log)
      ~upto:(Log_manager.end_lsn log) (fun lsn _ _ -> acc := lsn :: !acc);
    List.rev !acc
  in
  ignore (lsns w.b);
  match lsns w.a with [] -> None | l -> Some (List.nth l (c * List.length l / 1000))

(* A fresh log (with a fresh cache) holding what [log] retains, rebuilt
   through [restore_entries] or shipped segment by segment through
   [ingest_entries]; a shipment carries only durable records. *)
let copied ~ingest log =
  let copy = mk_log () in
  if ingest then begin
    Log_manager.flush_all log;
    let rec ship from =
      match Log_manager.export_from log ~from with
      | Some ex ->
          ignore (Log_manager.ingest_entries copy ex.Log_manager.ex_entries);
          ship ex.Log_manager.ex_next
      | None -> ()
    in
    ship (Log_manager.first_lsn log)
  end
  else Log_manager.restore_entries copy (Log_manager.dump_entries log);
  Log_manager.set_last_checkpoint copy (Log_manager.last_checkpoint log);
  copy

let apply_event w ev =
  let both f =
    f w.a;
    f w.b
  in
  (match ev with
  | E_none -> ()
  | E_cut c -> (
      match lsn_at w c with
      | Some target ->
          (* Retention cuts at checkpoints; an arbitrary record LSN is cut
             too, half the time. *)
          let ckpts = ref [] in
          Log_manager.iter_checkpoints_rev w.a (fun l _ ->
              ckpts := l :: !ckpts;
              true);
          let cut =
            match List.find_opt (fun l -> Lsn.(l >= target)) !ckpts with
            | Some l when c mod 2 = 0 -> l
            | _ -> target
          in
          both (fun log -> Log_manager.truncate_before log cut)
      | None -> ())
  | E_crash ->
      both (fun log ->
          Log_manager.crash log;
          ignore (Log_manager.repair_tail log))
  | E_truncate_from c -> (
      match lsn_at w c with
      | Some cut -> both (fun log -> ignore (Log_manager.truncate_from log cut))
      | None -> ())
  | E_restore | E_ingest ->
      let ingest = ev = E_ingest in
      w.a <- copied ~ingest w.a;
      w.b <- copied ~ingest w.b);
  if not (Lsn.equal (Log_manager.end_lsn w.a) (Log_manager.end_lsn w.b)) then
    Alcotest.fail "the twin logs diverged";
  dropped_to w (Log_manager.end_lsn w.a)

(* Every retained record, decoded once, with its LSN. *)
let decoded_records log =
  let acc = ref [] in
  Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log) ~upto:(Log_manager.end_lsn log)
    (fun lsn _ decode -> acc := (lsn, decode ()) :: !acc);
  List.rev !acc

(* The SplitLSN search as the paper states it: base checkpoint from the
   decoded checkpoint records, then a decoding scan of the log from there
   to the first commit or checkpoint past the target. *)
let reference_split log ~records ~wall_us =
  let base =
    List.fold_left
      (fun acc (lsn, r) ->
        match r.Log_record.body with
        | Log_record.Checkpoint { wall_us = w; _ } when w <= wall_us -> Some lsn
        | _ -> acc)
      None records
  in
  let scan_from =
    match base with
    | Some lsn -> lsn
    | None ->
        if Lsn.to_int (Log_manager.first_lsn log) > 1 then raise (Split_lsn.Out_of_retention wall_us);
        Log_manager.first_lsn log
  in
  let split = ref scan_from in
  (try
     Log_manager.iter_range_peek log ~from:scan_from ~upto:(Log_manager.end_lsn log)
       (fun lsn _ decode ->
         match (decode ()).Log_record.body with
         | Log_record.Commit { wall_us = w } ->
             if w <= wall_us then split := Log_manager.next_lsn_after log lsn else raise Exit
         | Log_record.Checkpoint { wall_us = w; _ } -> if w > wall_us then raise Exit
         | _ -> ())
   with Exit -> ());
  { Split_lsn.split_lsn = !split; base_checkpoint = Option.value base ~default:Lsn.nil }

(* The directory walks the searches replaced, kept as their oracle: the
   base checkpoint by reading each checkpoint back from the newest, the
   split by walking every control entry from it, and the in-flight test
   by replaying the Begin/Commit/End entries from the seed checkpoint's
   active set.  Each charges what the walk charged. *)
let walk_split log ~wall_us =
  let ckpts = ref [] in
  Log_manager.iter_controls log ~from:Lsn.nil (fun lsn kind _ w ->
      if kind = Log_record.K_checkpoint then ckpts := (lsn, w) :: !ckpts;
      true);
  let rec base = function
    | [] -> None
    | (lsn, w) :: older ->
        Log_manager.charge_read log lsn;
        if w <= wall_us then Some lsn else base older
  in
  let base = base !ckpts in
  if Option.is_none base && Lsn.to_int (Log_manager.first_lsn log) > 1 then
    raise (Split_lsn.Out_of_retention wall_us);
  let scan_from = Option.value base ~default:(Log_manager.first_lsn log) in
  let last_commit = ref None and stop = ref None in
  Log_manager.iter_controls log ~from:scan_from (fun lsn kind _ w ->
      match kind with
      | Log_record.K_commit when w <= wall_us ->
          last_commit := Some lsn;
          true
      | Log_record.K_commit | Log_record.K_checkpoint when w > wall_us ->
          stop := Some lsn;
          false
      | _ -> true);
  Log_manager.charge_scan log ~from:scan_from
    ~upto:
      (match !stop with
      | Some lsn -> Log_manager.next_lsn_after log lsn
      | None -> Log_manager.end_lsn log);
  {
    Split_lsn.split_lsn =
      (match !last_commit with Some lsn -> Log_manager.next_lsn_after log lsn | None -> scan_from);
    base_checkpoint = Option.value base ~default:Lsn.nil;
  }

let sorted_losers tbl = List.sort compare (List.of_seq (Rw_storage.Int_tbl.to_seq tbl))

let walk_losers_at log ~records ~start ~upto =
  let seed =
    if
      Lsn.(start < upto)
      && Log_manager.mem log start
      && (Log_manager.peek_record log start).Log_record.p_kind = Log_record.K_checkpoint
    then Some (List.assoc start records)
    else None
  in
  let scan_from = if Option.is_some seed then Log_manager.next_lsn_after log start else start in
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
    if Option.is_some seed then ignore (Log_manager.read log start);
    Log_manager.charge_scan log ~from:scan_from ~upto;
    ([], [], false)
  end
  else
    let a = Recovery.analyze ~log ~start ~upto in
    (sorted_losers a.Recovery.losers, List.sort compare (Recovery.loser_pages a), true)

(* What a log's charges moved: block hits and misses, seeks, sequential
   bytes, and the modeled clock. *)
let charged log f =
  let io = Log_manager.stats log and clock = Log_manager.clock log in
  let s0 = Io_stats.copy io and t0 = Sim_clock.now_us clock in
  let r = f () in
  let d = Io_stats.diff io s0 in
  ( r,
    ( d.Io_stats.log_block_hits,
      d.Io_stats.log_block_misses,
      d.Io_stats.random_reads,
      d.Io_stats.seq_read_bytes,
      Sim_clock.now_us clock -. t0 ) )

let outcome f = match f () with r -> Ok r | exception Split_lsn.Out_of_retention _ -> Error ()

(* Over generated histories, after every event, at every commit boundary
   and at random walls: the searches answer what the directory walks
   answer, which is what the decoding scan and [analyze] answer, and
   charge exactly what the walks charge, block by block.  Their
   sequential bytes are also the decoding scan's and [analyze]'s, so
   creation stays priced as the paper's scan and analysis.  [a] and [b]
   see the same calls in the same order, so their caches stay equal. *)
let test_directory_matches_scans () =
  let answered = ref 0 and scanned = ref 0 in
  let check_walls w h =
    let records = decoded_records w.a in
    ignore (decoded_records w.b);
    let span = Sim_clock.now_us w.wall in
    let walls =
      List.concat_map
        (fun (_, r) ->
          match r.Log_record.body with
          | Log_record.Commit { wall_us } | Log_record.Checkpoint { wall_us; _ } ->
              [ wall_us -. 0.5; wall_us; wall_us +. 0.5 ]
          | _ -> [])
        records
      @ List.map (fun p -> float_of_int p *. span /. 1000.0) h.probes
      @ [ -1.0; span +. 1.0 ]
    in
    List.iter
      (fun wall_us ->
        let fail fmt = QCheck.Test.fail_reportf ("at wall %.1f: " ^^ fmt) wall_us in
        let expect, (_, _, _, scan_bytes, _) =
          charged w.a (fun () -> outcome (fun () -> reference_split w.a ~records ~wall_us))
        in
        ignore (outcome (fun () -> reference_split w.b ~records ~wall_us));
        let walked, walk_cost = charged w.a (fun () -> outcome (fun () -> walk_split w.a ~wall_us)) in
        let found, find_cost =
          charged w.b (fun () -> outcome (fun () -> Split_lsn.find ~log:w.b ~wall_us))
        in
        let _, _, _, find_bytes, _ = find_cost in
        if walked <> expect then fail "the directory walk differs from the decoding scan";
        if found <> walked then fail "Split_lsn.find differs from the directory walk";
        if find_cost <> walk_cost then fail "Split_lsn.find charged otherwise than the walk";
        if find_bytes <> scan_bytes then
          fail "Split_lsn.find charged %d sequential bytes, the decoding scan %d" find_bytes
            scan_bytes;
        match found with
        | Error () -> ()
        | Ok split ->
            let start =
              if Lsn.is_nil split.Split_lsn.base_checkpoint then Log_manager.first_lsn w.b
              else split.Split_lsn.base_checkpoint
            in
            let upto = split.Split_lsn.split_lsn in
            let walked, walk_cost =
              charged w.a (fun () -> walk_losers_at w.a ~records ~start ~upto)
            in
            let l, cost = charged w.b (fun () -> Recovery.losers_at ~log:w.b ~start ~upto) in
            let got =
              ( sorted_losers l.Recovery.in_flight,
                List.sort compare l.Recovery.in_flight_pages,
                l.Recovery.loser_scan )
            in
            if l.Recovery.loser_scan then incr scanned else incr answered;
            if got <> walked then fail "losers_at differs from the directory walk";
            if cost <> walk_cost then fail "losers_at charged otherwise than the walk";
            let a, (_, _, _, a_bytes, _) =
              charged w.a (fun () -> Recovery.analyze ~log:w.a ~start ~upto)
            in
            ignore (Recovery.analyze ~log:w.b ~start ~upto);
            let ins, pages, _ = got in
            let _, _, _, l_bytes, _ = cost in
            if ins <> sorted_losers a.Recovery.losers then fail "losers_at differs from analyze";
            if pages <> List.sort compare (Recovery.loser_pages a) then fail "loser pages differ";
            if l_bytes <> a_bytes then
              fail "losers_at charged %d sequential bytes, analyze %d" l_bytes a_bytes)
      walls
  in
  let prop h =
    let w = { wall = Sim_clock.create (); a = mk_log (); b = mk_log (); txns = []; next = 1 } in
    List.iter
      (fun (steps, ev) ->
        run_steps w steps;
        check_walls w h;
        apply_event w ev;
        check_walls w h)
      h.phases;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"directory answers as-of creation like the walks and the scans"
       ~count:200 history_arb prop);
  check "the directory answered some creations" true (!answered > 0);
  check "some creations had losers and ran the scan" true (!scanned > 0)

let () =
  Alcotest.run "recovery"
    [
      ( "crash",
        [
          Alcotest.test_case "committed survive" `Quick test_committed_survive_crash;
          Alcotest.test_case "losers rolled back" `Quick test_uncommitted_rolled_back;
          Alcotest.test_case "unflushed loser vanishes" `Quick test_unflushed_loser_simply_vanishes;
          Alcotest.test_case "checkpoint bounds analysis" `Quick test_checkpoint_bounds_analysis;
          Alcotest.test_case "repeated crash idempotent" `Quick test_double_crash_idempotent;
          Alcotest.test_case "crash mid rollback" `Quick test_crash_mid_rollback_resumes;
          Alcotest.test_case "txn ids not reused" `Quick test_txn_ids_not_reused_after_recovery;
          Alcotest.test_case "drop + realloc recovered" `Quick test_recovery_with_drop_and_realloc;
          Alcotest.test_case "randomised crash fuzz" `Quick test_crash_fuzz;
          Alcotest.test_case "snapshot after recovery" `Quick test_snapshot_after_recovery;
        ] );
      ( "as-of",
        [
          Alcotest.test_case "directory matches the scans" `Quick test_directory_matches_scans;
        ] );
    ]
