(* Lock manager and transaction manager tests, including CLR-based rollback
   (with the paper's undo-information-bearing CLRs). *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Disk = Rw_storage.Disk
module Slotted_page = Rw_storage.Slotted_page
module Txn_id = Rw_wal.Txn_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Lock_manager = Rw_txn.Lock_manager
module Txn_manager = Rw_txn.Txn_manager
module Access_ctx = Rw_access.Access_ctx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

type env = {
  clock : Sim_clock.t;
  log : Log_manager.t;
  pool : Buffer_pool.t;
  txns : Txn_manager.t;
  ctx : Access_ctx.t;
}

let mk_env ?fpi () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let pool =
    Buffer_pool.create ~capacity:64 ~source:(Buffer_pool.of_disk disk)
      ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn)
      ()
  in
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let ctx = Access_ctx.create ~pool ~txns ~log ~clock ?fpi () in
  { clock; log; pool; txns; ctx }

(* --- lock manager --- *)

let test_lock_compat_matrix () =
  let open Lock_manager in
  check "IS/IS" true (compatible IS IS);
  check "IS/IX" true (compatible IS IX);
  check "IS/S" true (compatible IS S);
  check "IS/X" false (compatible IS X);
  check "IX/IX" true (compatible IX IX);
  check "IX/S" false (compatible IX S);
  check "IX/X" false (compatible IX X);
  check "S/S" true (compatible S S);
  check "S/X" false (compatible S X);
  check "X/X" false (compatible X X)

let test_lock_grant_conflict () =
  let lm = Lock_manager.create () in
  let t1 = Txn_id.of_int 1 and t2 = Txn_id.of_int 2 in
  let row = Lock_manager.Row (1, 5L) in
  Lock_manager.acquire lm t1 row Lock_manager.S;
  Lock_manager.acquire lm t2 row Lock_manager.S;
  Alcotest.check_raises "S blocks X" (Lock_manager.Lock_conflict row) (fun () ->
      Lock_manager.acquire lm t2 row Lock_manager.X);
  Lock_manager.release_all lm t1;
  Lock_manager.acquire lm t2 row Lock_manager.X;
  check "upgraded" true (Lock_manager.holds lm t2 row Lock_manager.X)

let test_lock_reentrant_and_upgrade () =
  let lm = Lock_manager.create () in
  let t1 = Txn_id.of_int 1 in
  let tab = Lock_manager.Table 3 in
  Lock_manager.acquire lm t1 tab Lock_manager.IS;
  Lock_manager.acquire lm t1 tab Lock_manager.IS;
  check_int "no duplicate entries" 1 (Lock_manager.lock_count lm);
  Lock_manager.acquire lm t1 tab Lock_manager.IX;
  check "IX held" true (Lock_manager.holds lm t1 tab Lock_manager.IX);
  check "covers IS still" true (Lock_manager.holds lm t1 tab Lock_manager.IS);
  Lock_manager.acquire lm t1 tab Lock_manager.X;
  check "upgraded to X" true (Lock_manager.holds lm t1 tab Lock_manager.X);
  Lock_manager.release_all lm t1;
  check_int "all released" 0 (Lock_manager.lock_count lm)

(* Three transactions over overlapping tables and rows, driven through
   [acquire] (refused and upgrade requests included), [release_all],
   [holds] and [lock_count], against a reference model: the granted modes
   as an association list, a mode's rights as a set, conflicts from the
   compatibility matrix.  After every step the two agree on the outcome,
   on every [holds] question and on the count. *)

type lock_step = Acquire of int * Lock_manager.resource * Lock_manager.mode | Release of int

let lock_modes = Lock_manager.[ IS; IX; S; X ]

let lock_resources =
  Lock_manager.[ Table 1; Table 2; Row (1, 1L); Row (1, 2L); Row (2, 1L); Row (2, 0x1_0000_0001L) ]

let rights = function
  | Lock_manager.IS -> [ `is ]
  | Lock_manager.IX -> [ `is; `ix ]
  | Lock_manager.S -> [ `is; `s ]
  | Lock_manager.X -> [ `is; `ix; `s; `x ]

let model_covers held req = List.for_all (fun r -> List.mem r (rights held)) (rights req)

(* The weakest mode covering both: a grant or an upgrade. *)
let model_join a b = List.find (fun m -> model_covers m a && model_covers m b) lock_modes

(* [(res, txn), mode] for every granted lock *)
let model_acquire model txn res mode =
  let mine = List.assoc_opt (res, txn) model in
  match mine with
  | Some held when model_covers held mode -> Ok model
  | _ ->
      if
        List.exists
          (fun ((r, t), m) -> r = res && t <> txn && not (Lock_manager.compatible m mode))
          model
      then Error ()
      else
        let final = match mine with None -> mode | Some held -> model_join held mode in
        Ok (((res, txn), final) :: List.remove_assoc (res, txn) model)

let lock_step_gen =
  let open QCheck.Gen in
  list_size (1 -- 40)
    (frequency
       [
         ( 6,
           map3 (fun txn res mode -> Acquire (txn, res, mode)) (1 -- 3) (oneofl lock_resources)
             (oneofl lock_modes) );
         (1, map (fun txn -> Release txn) (1 -- 3));
       ])

let print_lock_step = function
  | Acquire (t, res, m) ->
      Printf.sprintf "acquire %d %s %s" t
        (match res with
        | Lock_manager.Table id -> Printf.sprintf "table %d" id
        | Lock_manager.Row (id, k) -> Printf.sprintf "row %d/%Ld" id k)
        (match m with Lock_manager.IS -> "IS" | IX -> "IX" | S -> "S" | X -> "X")
  | Release t -> Printf.sprintf "release %d" t

let lock_model_prop =
  QCheck.Test.make ~name:"lock manager agrees with a reference model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_lock_step) lock_step_gen) (fun steps ->
      let lm = Lock_manager.create () in
      let agree model =
        List.length model = Lock_manager.lock_count lm
        && List.for_all
             (fun txn ->
               List.for_all
                 (fun res ->
                   List.for_all
                     (fun mode ->
                       let expect =
                         match List.assoc_opt (res, txn) model with
                         | Some held -> model_covers held mode
                         | None -> false
                       in
                       Lock_manager.holds lm (Txn_id.of_int txn) res mode = expect)
                     lock_modes)
                 lock_resources)
             [ 1; 2; 3 ]
      in
      ignore
        (List.fold_left
          (fun model step ->
            let model =
              match step with
              | Acquire (txn, res, mode) -> (
                  let granted =
                    match Lock_manager.acquire lm (Txn_id.of_int txn) res mode with
                    | () -> true
                    | exception Lock_manager.Lock_conflict r ->
                        if r <> res then QCheck.Test.fail_report "conflict names another resource";
                        false
                  in
                  match (model_acquire model txn res mode, granted) with
                  | Ok model, true -> model
                  | Error (), false -> model
                  | Ok _, false -> QCheck.Test.fail_reportf "refused: %s" (print_lock_step step)
                  | Error (), true -> QCheck.Test.fail_reportf "granted: %s" (print_lock_step step))
              | Release txn ->
                  Lock_manager.release_all lm (Txn_id.of_int txn);
                  List.filter (fun ((_, t), _) -> t <> txn) model
            in
            if not (agree model) then
              QCheck.Test.fail_reportf "model and lock manager differ after %s"
                (print_lock_step step);
            model)
          [] steps);
      List.iter (fun txn -> Lock_manager.release_all lm (Txn_id.of_int txn)) [ 1; 2; 3 ];
      Lock_manager.lock_count lm = 0)

(* --- transactions --- *)

let test_commit_flushes_log () =
  let env = mk_env () in
  let txn = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx txn (Page_id.of_int 0)
    (Log_record.Format { typ = Page.Heap; level = 0 });
  let modify_lsn = Txn_manager.last_lsn txn in
  check "not yet durable" true Lsn.(Log_manager.flushed_lsn env.log <= modify_lsn);
  Txn_manager.commit env.txns txn ~wall_us:(Sim_clock.now_us env.clock);
  check "durable after commit" true Lsn.(Log_manager.flushed_lsn env.log > modify_lsn);
  check "txn committed" true (Txn_manager.state txn = Txn_manager.Committed)

let setup_page env txn =
  Access_ctx.modify env.ctx txn (Page_id.of_int 0)
    (Log_record.Format { typ = Page.Heap; level = 0 });
  Access_ctx.modify env.ctx txn (Page_id.of_int 0)
    (Log_record.Insert_row { slot = 0; row = "committed" })

let page_rows env =
  Buffer_pool.with_page env.pool (Page_id.of_int 0) ~mode:Rw_buffer.Latch.Shared (fun p ->
      Slotted_page.fold p ~init:[] ~f:(fun acc _ r -> r :: acc) |> List.rev)

let test_rollback_restores_content () =
  let env = mk_env () in
  let t1 = Txn_manager.begin_txn env.txns in
  setup_page env t1;
  Txn_manager.commit env.txns t1 ~wall_us:0.0;
  let t2 = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx t2 (Page_id.of_int 0)
    (Log_record.Insert_row { slot = 1; row = "uncommitted" });
  Access_ctx.modify env.ctx t2 (Page_id.of_int 0)
    (Log_record.Update_row { slot = 0; before = "committed"; after = "mutated" });
  check "mutations visible" true (page_rows env = [ "mutated"; "uncommitted" ]);
  Txn_manager.rollback env.txns t2 ~write_page:(Access_ctx.page_writer env.ctx);
  check "content restored" true (page_rows env = [ "committed" ]);
  check "txn aborted" true (Txn_manager.state t2 = Txn_manager.Aborted)

let test_rollback_writes_clrs_with_undo_info () =
  let env = mk_env () in
  let t1 = Txn_manager.begin_txn env.txns in
  setup_page env t1;
  Txn_manager.commit env.txns t1 ~wall_us:0.0;
  let t2 = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx t2 (Page_id.of_int 0)
    (Log_record.Insert_row { slot = 1; row = "x" });
  Txn_manager.rollback env.txns t2 ~write_page:(Access_ctx.page_writer env.ctx);
  (* Find the CLR in the log and check it carries undo info (the row). *)
  let clrs = ref [] in
  Log_manager.iter_range_peek env.log ~from:(Log_manager.first_lsn env.log)
    ~upto:(Log_manager.end_lsn env.log) (fun _ _ decode ->
      match (decode ()).Log_record.body with
      | Log_record.Clr { op; _ } -> clrs := op :: !clrs
      | _ -> ());
  (match !clrs with
  | [ Log_record.Delete_row { row; slot } ] ->
      check_str "CLR compensates the insert, carrying the row" "x" row;
      check_int "slot" 1 slot
  | _ -> Alcotest.fail "expected exactly one CLR");
  (* The CLR itself must be invertible — that is the paper's extension. *)
  match !clrs with
  | [ op ] -> check "clr op invertible" true (Log_record.invert op <> None)
  | _ -> ()

let test_rollback_releases_locks () =
  let env = mk_env () in
  let locks = Txn_manager.locks env.txns in
  let t = Txn_manager.begin_txn env.txns in
  Txn_manager.lock env.txns t (Lock_manager.Row (1, 1L)) Lock_manager.X;
  check "lock held" true (Lock_manager.lock_count locks > 0);
  Txn_manager.rollback env.txns t ~write_page:(Access_ctx.page_writer env.ctx);
  check_int "locks released" 0 (Lock_manager.lock_count locks)

let test_active_txns_listing () =
  let env = mk_env () in
  let t1 = Txn_manager.begin_txn env.txns in
  let t2 = Txn_manager.begin_txn env.txns in
  check_int "two active" 2 (List.length (Txn_manager.active_txns env.txns));
  Txn_manager.commit env.txns t1 ~wall_us:0.0;
  check_int "one active" 1 (List.length (Txn_manager.active_txns env.txns));
  Txn_manager.rollback env.txns t2 ~write_page:(Access_ctx.page_writer env.ctx);
  check_int "none active" 0 (List.length (Txn_manager.active_txns env.txns))

let test_double_commit_rejected () =
  let env = mk_env () in
  let t = Txn_manager.begin_txn env.txns in
  Txn_manager.commit env.txns t ~wall_us:0.0;
  Alcotest.check_raises "double commit" (Invalid_argument "Txn_manager.commit: txn not active")
    (fun () -> Txn_manager.commit env.txns t ~wall_us:0.0)

(* --- group commit --- *)

let test_group_commit_batches () =
  let env = mk_env () in
  Txn_manager.set_group_commit env.txns ~max_batch_bytes:max_int ~max_delay_us:infinity;
  let row_resource = Lock_manager.Row (1, 1L) in
  let mk i =
    let txn = Txn_manager.begin_txn env.txns in
    Txn_manager.lock env.txns txn (Lock_manager.Row (1, Int64.of_int i)) Lock_manager.X;
    Access_ctx.modify env.ctx txn (Page_id.of_int i)
      (Log_record.Format { typ = Page.Heap; level = 0 });
    txn
  in
  let txns =
    List.init 3 mk
    |> List.map (fun txn -> (txn, Txn_manager.commit_begin env.txns txn ~wall_us:0.0))
  in
  (* In flight: commit records appended but not yet durable, no ack. *)
  check_int "three pending" 3 (Txn_manager.pending_commits env.txns);
  List.iter
    (fun (txn, _) -> check "committing" true (Txn_manager.state txn = Txn_manager.Committing))
    txns;
  check "commit record appended but not flushed" true
    Lsn.(Log_manager.flushed_lsn env.log <= snd (List.hd txns));
  (* Early lock release: a fresh txn can take X on a resource a committing
     txn wrote under, before the group flush happens. *)
  let probe = Txn_manager.begin_txn env.txns in
  Txn_manager.lock env.txns probe row_resource Lock_manager.X;
  Txn_manager.rollback env.txns probe ~write_page:(Access_ctx.page_writer env.ctx);
  (* One flush makes the whole batch durable and acks every waiter. *)
  let before = (Log_manager.stats env.log).Rw_storage.Io_stats.log_flush_batches in
  check_int "one flush acks all" 3 (Txn_manager.flush_commits env.txns);
  check_int "single priced batch" 1
    ((Log_manager.stats env.log).Rw_storage.Io_stats.log_flush_batches - before);
  check_int "coalesced counter" 3
    (Log_manager.stats env.log).Rw_storage.Io_stats.log_commits_coalesced;
  check_int "none pending" 0 (Txn_manager.pending_commits env.txns);
  List.iter
    (fun (txn, commit_lsn) ->
      check "committed" true (Txn_manager.state txn = Txn_manager.Committed);
      check "durable" true Lsn.(Log_manager.flushed_lsn env.log > commit_lsn);
      (* The chain tail past the commit record is the End record. *)
      match (Log_manager.read env.log (Txn_manager.last_lsn txn)).Log_record.body with
      | Log_record.End -> ()
      | _ -> Alcotest.fail "chain tail is not an End record")
    txns

(* A log flush that fails (the simulated media rejects the write) must not
   leave the transaction Active with a dangling commit record: the state
   transition to Committing happens before the append, so the failed txn can
   neither be committed again nor rolled back as if the commit never
   happened. *)
let test_commit_failure_leaves_committing () =
  let clock = Sim_clock.create () in
  let failing =
    {
      Media.name = "failing-log";
      seq_read_mb_s = infinity;
      seq_write_mb_s = -1.0;
      rand_read_lat_us = 0.0;
      rand_write_lat_us = 0.0;
    }
  in
  let log = Log_manager.create ~clock ~media:failing () in
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let txn = Txn_manager.begin_txn txns in
  ignore
    (Txn_manager.log_page_op txns txn ~page:(Page_id.of_int 0) ~prev_page_lsn:Lsn.nil
       (Log_record.Format { typ = Page.Heap; level = 0 }));
  (match Txn_manager.commit txns txn ~wall_us:0.0 with
  | () -> Alcotest.fail "commit on failing media should raise"
  | exception Invalid_argument _ -> ());
  check "stuck in Committing, not Active" true (Txn_manager.state txn = Txn_manager.Committing);
  (* The commit record is on the chain: the outcome is decided (recovery
     would commit it if it became durable, lose it otherwise) — so both
     re-commit and rollback are refused. *)
  (match (Log_manager.read log (Txn_manager.last_lsn txn)).Log_record.body with
  | Log_record.Commit _ -> ()
  | _ -> Alcotest.fail "chain tail is not the commit record");
  Alcotest.check_raises "re-commit refused"
    (Invalid_argument "Txn_manager.commit: txn not active") (fun () ->
      Txn_manager.commit txns txn ~wall_us:0.0);
  Alcotest.check_raises "rollback refused"
    (Invalid_argument "Txn_manager.rollback: txn not active") (fun () ->
      Txn_manager.rollback txns txn ~write_page:(fun _ _ -> ()));
  (* The txn table may still drop it without touching its state. *)
  Txn_manager.finished txns txn

let test_fpi_emission () =
  let env = mk_env ~fpi:(Access_ctx.Every_mods 3) () in
  let t = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx t (Page_id.of_int 0)
    (Log_record.Format { typ = Page.Heap; level = 0 });
  for i = 0 to 7 do
    Access_ctx.modify env.ctx t (Page_id.of_int 0)
      (Log_record.Insert_row { slot = i; row = Printf.sprintf "row%d" i })
  done;
  Txn_manager.commit env.txns t ~wall_us:0.0;
  let fpis = ref 0 in
  Log_manager.iter_range_peek env.log ~from:(Log_manager.first_lsn env.log)
    ~upto:(Log_manager.end_lsn env.log) (fun _ _ decode ->
      match (decode ()).Log_record.body with
      | Log_record.Page_op { op = Log_record.Full_image _; _ } -> incr fpis
      | _ -> ());
  (* 9 modifications with N=3 -> 3 images *)
  check_int "every 3rd modification logs an image" 3 !fpis

let () =
  Alcotest.run "txn"
    [
      ( "locks",
        [
          Alcotest.test_case "compatibility matrix" `Quick test_lock_compat_matrix;
          Alcotest.test_case "grant and conflict" `Quick test_lock_grant_conflict;
          Alcotest.test_case "reentrancy and upgrade" `Quick test_lock_reentrant_and_upgrade;
          QCheck_alcotest.to_alcotest lock_model_prop;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit forces log" `Quick test_commit_flushes_log;
          Alcotest.test_case "rollback restores content" `Quick test_rollback_restores_content;
          Alcotest.test_case "CLRs carry undo info" `Quick test_rollback_writes_clrs_with_undo_info;
          Alcotest.test_case "rollback releases locks" `Quick test_rollback_releases_locks;
          Alcotest.test_case "active listing" `Quick test_active_txns_listing;
          Alcotest.test_case "double commit rejected" `Quick test_double_commit_rejected;
          Alcotest.test_case "group commit batches and acks" `Quick test_group_commit_batches;
          Alcotest.test_case "failed commit flush leaves Committing" `Quick
            test_commit_failure_leaves_committing;
          Alcotest.test_case "FPI every Nth modification" `Quick test_fpi_emission;
        ] );
    ]
