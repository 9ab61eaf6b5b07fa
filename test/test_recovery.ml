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

(* One step of a generated history, interpreted by [build_history]. *)
type step =
  | S_begin
  | S_op of int * int  (** an active txn (by index) writes a page *)
  | S_commit of int  (** an active txn appends its Commit; its End waits for [S_ack] *)
  | S_ack  (** End records for every committed txn *)
  | S_abort of int  (** an active txn appends Abort and starts rolling back *)
  | S_compensate of int  (** an aborting txn logs one CLR, or its End once done *)
  | S_checkpoint
  | S_tick of int  (** advance the clock (0 leaves commit walls tied) *)
  | S_fpi of int  (** a page image outside any transaction *)

let step_gen =
  let open QCheck.Gen in
  let pick = int_bound 7 in
  frequency
    [
      (3, return S_begin);
      (6, map2 (fun t p -> S_op (t, p)) pick (int_bound 5));
      (3, map (fun t -> S_commit t) pick);
      (2, return S_ack);
      (1, map (fun t -> S_abort t) pick);
      (4, map (fun t -> S_compensate t) pick);
      (1, return S_checkpoint);
      (3, map (fun n -> S_tick n) (int_bound 2));
      (1, map (fun p -> S_fpi p) (int_bound 5));
    ]

type history = {
  steps : step list;
  cut : int option;  (** truncate_before at this per-mille of the log, if any *)
  probes : int list;  (** extra target walls, per-mille of the history's span *)
}

let history_gen =
  let open QCheck.Gen in
  map3
    (fun steps cut probes -> { steps; cut; probes })
    (list_size (10 -- 150) step_gen)
    (opt ~ratio:0.3 (int_bound 999))
    (list_size (0 -- 4) (int_bound 1000))

let show_step = function
  | S_begin -> "begin"
  | S_op (t, p) -> Printf.sprintf "op(%d,%d)" t p
  | S_commit t -> Printf.sprintf "commit(%d)" t
  | S_ack -> "ack"
  | S_abort t -> Printf.sprintf "abort(%d)" t
  | S_compensate t -> Printf.sprintf "compensate(%d)" t
  | S_checkpoint -> "checkpoint"
  | S_tick n -> Printf.sprintf "tick(%d)" n
  | S_fpi p -> Printf.sprintf "fpi(%d)" p

let history_arb =
  QCheck.make history_gen ~print:(fun h ->
      Printf.sprintf "steps=[%s] cut=%s probes=[%s]"
        (String.concat ";" (List.map show_step h.steps))
        (match h.cut with Some c -> string_of_int c | None -> "-")
        (String.concat ";" (List.map string_of_int h.probes)))

type live = {
  id : Txn_id.t;
  mutable last : Lsn.t;
  mutable ops : (Page_id.t * Log_record.op * Lsn.t) list;  (** newest first, with prev *)
  mutable aborting : bool;
}

(* Interpret the steps straight onto a log with small segments (so
   straddles and multi-segment walks occur): interleaved transactions,
   commits whose End lands later (group commit), rollbacks interleaved
   with other work, checkpoints listing the transactions active at the
   time, transactions left open at the end. *)
let build_history h =
  let clock = Sim_clock.create () in
  let log =
    Log_manager.create ~clock ~media:Media.ssd ~cache_blocks:4 ~block_bytes:256
      ~segment_bytes:512 ()
  in
  let live = ref [] and committed = ref [] and next = ref 1 in
  let app ?(txn = Txn_id.nil) ?(prev = Lsn.nil) body =
    Log_manager.append log (Log_record.make ~txn ~prev_txn_lsn:prev body)
  in
  let nth_live ~aborting k =
    match List.filter (fun t -> t.aborting = aborting) !live with
    | [] -> None
    | l -> Some (List.nth l (k mod List.length l))
  in
  let drop t = live := List.filter (fun x -> x != t) !live in
  List.iter
    (function
      | S_begin ->
          if List.length !live < 6 then begin
            let id = Txn_id.of_int !next in
            incr next;
            live := !live @ [ { id; last = app ~txn:id Log_record.Begin; ops = []; aborting = false } ]
          end
      | S_op (k, p) -> (
          match nth_live ~aborting:false k with
          | Some t ->
              let page = Page_id.of_int (10 + p) in
              let op = Log_record.Set_header { field = Log_record.Special; before = 0L; after = 1L } in
              let prev = t.last in
              t.last <- app ~txn:t.id ~prev (Log_record.Page_op { page; prev_page_lsn = Lsn.nil; op });
              t.ops <- (page, op, prev) :: t.ops
          | None -> ())
      | S_commit k -> (
          match nth_live ~aborting:false k with
          | Some t ->
              t.last <-
                app ~txn:t.id ~prev:t.last (Log_record.Commit { wall_us = Sim_clock.now_us clock });
              drop t;
              committed := !committed @ [ t ]
          | None -> ())
      | S_ack ->
          List.iter (fun t -> ignore (app ~txn:t.id ~prev:t.last Log_record.End)) !committed;
          committed := []
      | S_abort k -> (
          match nth_live ~aborting:false k with
          | Some t ->
              t.last <- app ~txn:t.id ~prev:t.last Log_record.Abort;
              t.aborting <- true
          | None -> ())
      | S_compensate k -> (
          match nth_live ~aborting:true k with
          | Some t -> (
              match t.ops with
              | (page, op, undo_next) :: rest ->
                  let op = Option.get (Log_record.invert op) in
                  t.last <-
                    app ~txn:t.id ~prev:t.last
                      (Log_record.Clr { page; prev_page_lsn = Lsn.nil; op; undo_next });
                  t.ops <- rest
              | [] ->
                  ignore (app ~txn:t.id ~prev:t.last Log_record.End);
                  drop t)
          | None -> ())
      | S_checkpoint ->
          let lsn =
            app
              (Log_record.Checkpoint
                 {
                   wall_us = Sim_clock.now_us clock;
                   active_txns = List.map (fun t -> (t.id, t.last)) !live;
                   dirty_pages = [];
                 })
          in
          Log_manager.set_last_checkpoint log lsn
      | S_tick n -> Sim_clock.advance_us clock (float_of_int (n * 1000))
      | S_fpi p ->
          ignore
            (app
               (Log_record.Page_op
                  {
                    page = Page_id.of_int (10 + p);
                    prev_page_lsn = Lsn.nil;
                    op = Log_record.Full_image { image = String.make Rw_storage.Page.page_size 'f' };
                  })))
    h.steps;
  Log_manager.flush_all log;
  (clock, log)

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
  let commits = ref 0 and split = ref scan_from in
  (try
     Log_manager.iter_range_peek log ~from:scan_from ~upto:(Log_manager.end_lsn log)
       (fun lsn _ decode ->
         match (decode ()).Log_record.body with
         | Log_record.Commit { wall_us = w } ->
             if w <= wall_us then begin
               incr commits;
               split := Log_manager.next_lsn_after log lsn
             end
             else raise Exit
         | Log_record.Checkpoint { wall_us = w; _ } -> if w > wall_us then raise Exit
         | _ -> ())
   with Exit -> ());
  {
    Split_lsn.split_lsn = !split;
    base_checkpoint = Option.value base ~default:Lsn.nil;
    commits_seen = !commits;
  }

let seq_bytes log f =
  let io = Log_manager.stats log in
  let before = io.Io_stats.seq_read_bytes in
  let r = f () in
  (r, io.Io_stats.seq_read_bytes - before)

let sorted_losers tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Over generated histories, at every commit boundary and at random
   walls: the directory-driven SplitLSN search returns what the decoding
   scan returns and charges the same sequential bytes, and [losers_at]
   returns [analyze]'s losers and loser pages and charges what it
   charges. *)
let test_directory_matches_scans () =
  let answered = ref 0 and scanned = ref 0 in
  let prop h =
    let clock, log = build_history h in
    let lsns = List.map fst (decoded_records log) in
    (match h.cut with
    | Some c when lsns <> [] ->
        let target = List.nth lsns (c * List.length lsns / 1000) in
        (* Retention cuts at checkpoints; an arbitrary record LSN is cut
           too, half the time. *)
        let ckpts = ref [] in
        Log_manager.iter_checkpoints_rev log (fun l _ ->
            ckpts := l :: !ckpts;
            true);
        let ckpt = List.find_opt (fun l -> Lsn.(l >= target)) !ckpts in
        Log_manager.truncate_before log
          (match ckpt with Some l when c mod 2 = 0 -> l | _ -> target)
    | _ -> ());
    let records = decoded_records log in
    let span = Sim_clock.now_us clock in
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
    List.for_all
      (fun wall_us ->
        let expect =
          match seq_bytes log (fun () -> reference_split log ~records ~wall_us) with
          | r -> Ok r
          | exception Split_lsn.Out_of_retention _ -> Error ()
        in
        let got =
          match seq_bytes log (fun () -> Split_lsn.find ~log ~wall_us) with
          | r -> Ok r
          | exception Split_lsn.Out_of_retention _ -> Error ()
        in
        if got <> expect then
          QCheck.Test.fail_reportf "Split_lsn.find differs from the decoding scan at wall %.1f" wall_us;
        match got with
        | Error () -> true
        | Ok (split, _) ->
            let start =
              if Lsn.is_nil split.Split_lsn.base_checkpoint then Log_manager.first_lsn log
              else split.Split_lsn.base_checkpoint
            in
            let upto = split.Split_lsn.split_lsn in
            let a, a_bytes = seq_bytes log (fun () -> Recovery.analyze ~log ~start ~upto) in
            let l, l_bytes = seq_bytes log (fun () -> Recovery.losers_at ~log ~start ~upto) in
            if l.Recovery.loser_scan then incr scanned else incr answered;
            if sorted_losers l.Recovery.in_flight <> sorted_losers a.Recovery.losers then
              QCheck.Test.fail_reportf "losers_at differs from analyze at wall %.1f" wall_us;
            if
              List.sort compare l.Recovery.in_flight_pages
              <> List.sort compare (Recovery.loser_pages a)
            then QCheck.Test.fail_reportf "loser pages differ at wall %.1f" wall_us;
            if l_bytes <> a_bytes then
              QCheck.Test.fail_reportf "losers_at charged %d sequential bytes, analyze %d" l_bytes
                a_bytes;
            true)
      walls
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"directory answers as-of creation like the scans" ~count:200
       history_arb prop);
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
