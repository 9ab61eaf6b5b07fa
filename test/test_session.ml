(* Multi-session scheduler + shared prepared-page cache (ISSUE 6).

   The properties under test:
   - interleaving writer and reader sessions is invisible to results:
     every reader, stepped round-robin against live writers (and across a
     mid-run retention truncation), stays byte-equal to a solo snapshot
     created with the shared cache off;
   - the prepared-page cache survives appends but is invalidated by
     history loss (retention truncation) and crash — never serving an
     image whose chain basis is gone;
   - a second overlapping snapshot actually reuses the first one's
     rewinds (cache hits > 0, far fewer chain reads). *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Log_manager = Rw_wal.Log_manager
module Log_record = Rw_wal.Log_record
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module As_of_snapshot = Rw_core.As_of_snapshot
module Prepared_cache = Rw_core.Prepared_cache
module Page_undo = Rw_core.Page_undo
module Session_manager = Rw_session.Session_manager
module Tpcc = Rw_workload.Tpcc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every page allocated on the primary's disk. *)
let written_pages db =
  let disk = Database.disk db in
  List.filter (Rw_storage.Disk.has_page disk)
    (List.init (Rw_storage.Disk.page_count disk) Page_id.of_int)

(* A TPC-C database with [txns] of committed history; returns the run's
   start and end sim times so callers can aim snapshots inside it. *)
let build_tpcc ?(seed = 42) ?log_segment_bytes ~txns () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:1024 ?log_segment_bytes "tpcc" in
  let cfg = { Tpcc.small_config with Tpcc.seed } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let t0 = Engine.now_us eng in
  ignore (Tpcc.run_mix drv ~txns);
  let t1 = Engine.now_us eng in
  (eng, db, cfg, t0, t1)

(* --- N writers + M readers interleaved, with a mid-run truncation --- *)

let run_interleaving seed =
  (* Small log segments so the mid-run retention enforcement actually
     drops sealed segments (and so bumps the invalidation epoch). *)
  let _eng, db, cfg, t0, t1 = build_tpcc ~seed ~log_segment_bytes:16384 ~txns:120 () in
  let span = t1 -. t0 in
  let sm = Session_manager.create db in
  let writers =
    List.init 2 (fun i ->
        let drv = Tpcc.create db { cfg with Tpcc.seed = seed + (31 * (i + 1)) } in
        Session_manager.open_writer sm
          ~name:(Printf.sprintf "w%d" i)
          ~step:(fun _ -> ignore (Tpcc.run_mix drv ~txns:2)))
  in
  let readers =
    List.init 3 (fun i ->
        (* Staggered targets in the recent fifth of history: they survive
           the retention cut below. *)
        let target = t1 -. ((0.10 +. (0.05 *. float_of_int i)) *. span) in
        let rs =
          Session_manager.open_reader sm
            ~name:(Printf.sprintf "r%d" i)
            ~wall_us:target
            ~step:(fun view ->
              let d = 1 + (i mod cfg.Tpcc.districts) in
              ignore (Tpcc.stock_level view cfg ~w:1 ~d ~threshold:15))
        in
        (rs, target))
  in
  check_int "all sessions live" 5 (Session_manager.live_count sm);
  Session_manager.run sm ~rounds:3;
  (* Mid-run history loss: retention keeps the last 0.9 span, truncating
     the load and early run while every reader's split stays retained. *)
  let epoch0 = Log_manager.invalidation_epoch (Database.log db) in
  Database.set_retention db (Some (0.9 *. span));
  ignore (Database.enforce_retention db);
  check "truncation bumped the invalidation epoch" true
    (Log_manager.invalidation_epoch (Database.log db) > epoch0);
  Session_manager.run sm ~rounds:3;
  (* Every shared reader must be byte-equal (canonical images) to a solo
     snapshot created with the cache off at the same target. *)
  List.iter
    (fun ((rs : Session_manager.session), target) ->
      let view = Session_manager.view rs in
      let snap = Option.get (Database.snapshot_handle view) in
      let solo_view =
        Database.create_as_of_snapshot ~shared:false db
          ~name:(Printf.sprintf "solo_%s" (Database.name (Session_manager.view rs)))
          ~wall_us:target
      in
      let solo = Option.get (Database.snapshot_handle solo_view) in
      check "split lsns equal" true
        (Lsn.equal (As_of_snapshot.split_lsn snap) (As_of_snapshot.split_lsn solo));
      List.iter
        (fun pid ->
          check_string
            (Printf.sprintf "%s page %d"
               (Database.name (Session_manager.view rs))
               (Page_id.to_int pid))
            (As_of_snapshot.page_string solo pid)
            (As_of_snapshot.page_string snap pid))
        (written_pages db);
      As_of_snapshot.drop solo)
    readers;
  List.iter (fun w -> Session_manager.close sm w) writers;
  List.iter (fun (r, _) -> Session_manager.close sm r) readers;
  check_int "all sessions closed" 0 (Session_manager.live_count sm)

let test_interleaving_seed_7 () = run_interleaving 7
let test_interleaving_seed_19 () = run_interleaving 19

(* --- epoch invalidation: truncation and crash kill cached images --- *)

let test_epoch_invalidation () =
  let clock = Sim_clock.create () in
  (* Tiny segments: truncate_before can drop whole sealed segments. *)
  let log = Log_manager.create ~clock ~media:Media.ram ~segment_bytes:256 () in
  let pid = Page_id.of_int 0 in
  let page = Page.create ~id:pid ~typ:Page.Heap in
  let append op =
    let prev = Page.lsn page in
    let lsn =
      Log_manager.append log
        (Log_record.make (Log_record.Page_op { page = pid; prev_page_lsn = prev; op }))
    in
    Log_record.redo pid op page;
    Page.set_lsn page lsn;
    lsn
  in
  ignore (append (Log_record.Format { typ = Page.Heap; level = 0 }));
  let lsns = Array.init 40 (fun i -> append (Log_record.Insert_row { slot = 0; row = Printf.sprintf "row-%02d" i })) in
  let cache = Prepared_cache.create ~log in
  let split = lsns.(20) in
  let image = Page.copy page in
  ignore (Page_undo.prepare_page_as_of ~log ~page:image ~as_of:split);
  Prepared_cache.add cache pid ~as_of:split image;
  (match Prepared_cache.find cache pid ~split with
  | Prepared_cache.Exact _ -> ()
  | _ -> Alcotest.fail "expected an exact hit before truncation");
  (* Truncate above the entry's as_of: its chain basis is gone. *)
  let e0 = Log_manager.invalidation_epoch log in
  Log_manager.truncate_before log lsns.(30);
  check "truncation bumps the epoch" true (Log_manager.invalidation_epoch log > e0);
  (match Prepared_cache.find cache pid ~split:lsns.(30) with
  | Prepared_cache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after truncation");
  check_int "stale entries pruned" 0 (Prepared_cache.entries cache);
  (* Crash: unflushed LSNs can be recycled with different contents, so
     cached images die even though first_lsn did not move. *)
  let split2 = Log_manager.end_lsn log in
  Prepared_cache.add cache pid ~as_of:split2 (Page.copy page);
  (match Prepared_cache.find cache pid ~split:split2 with
  | Prepared_cache.Exact _ -> ()
  | _ -> Alcotest.fail "expected an exact hit before crash");
  let e1 = Log_manager.invalidation_epoch log in
  Log_manager.crash log;
  check "crash bumps the epoch" true (Log_manager.invalidation_epoch log > e1);
  match Prepared_cache.find cache pid ~split:split2 with
  | Prepared_cache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after crash"

(* --- dropped entries give their page buffers back, each once --- *)

(* An entry holds a recycled page buffer (Page.copy) and releases it when
   it is evicted or pruned.  This domain's free list is emptied first and
   then filled with known buffers [mine], which the adds take as their
   copies.  After eight evictions past the 512-entry bound and a crash
   that prunes every other entry, the free list must hold each of [mine]
   exactly once: a buffer released twice would come back twice, one never
   released would leave a fresh buffer in its place. *)
let test_cache_releases_dropped () =
  let clock = Sim_clock.create () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let cache = Prepared_cache.create ~log in
  let src = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  let held = List.init 1024 (fun _ -> Page.create ~id:Page_id.nil ~typ:Page.Free) in
  let n = 512 + 8 in
  let mine = List.init n (fun _ -> Bytes.create Page.page_size) in
  List.iter Page.release mine;
  for i = 1 to n do
    Prepared_cache.add cache (Page_id.of_int i) ~as_of:(Lsn.of_int (100 + i)) src
  done;
  check_int "bounded" 512 (Prepared_cache.entries cache);
  Log_manager.crash log;
  check_int "pruned" 0 (List.length (Prepared_cache.contents cache));
  let back = List.init n (fun _ -> Page.create ~id:Page_id.nil ~typ:Page.Free) in
  check "every buffer came back" true (List.for_all (fun p -> List.memq p mine) back);
  check "each once" true
    (List.for_all (fun p -> List.length (List.filter (fun q -> q == p) back) = 1) back);
  check "and nothing more" false
    (List.memq (Page.create ~id:Page_id.nil ~typ:Page.Free) mine);
  ignore (Sys.opaque_identity held)

(* --- a second overlapping snapshot reuses the first one's rewinds --- *)

let test_shared_cache_reuse () =
  let _eng, db, cfg, t0, t1 = build_tpcc ~txns:120 () in
  let target = t1 -. (0.3 *. (t1 -. t0)) in
  let a = Database.create_as_of_snapshot db ~name:"a" ~wall_us:target in
  let snap_a = Option.get (Database.snapshot_handle a) in
  let count_a = Tpcc.stock_level a cfg ~w:1 ~d:1 ~threshold:15 in
  let chain_reads snap =
    List.fold_left (fun acc r -> acc + r.As_of_snapshot.rc_log_reads) 0
      (As_of_snapshot.rewinds snap)
  in
  let reads_a = chain_reads snap_a in
  check "first snapshot read undo chains" true (reads_a > 0);
  let cache = Database.prepared_cache db in
  let hits0 = Prepared_cache.hits cache + Prepared_cache.delta_hits cache in
  let b = Database.create_as_of_snapshot db ~name:"b" ~wall_us:target in
  let snap_b = Option.get (Database.snapshot_handle b) in
  let count_b = Tpcc.stock_level b cfg ~w:1 ~d:1 ~threshold:15 in
  check_int "same query answer" count_a count_b;
  check "second snapshot hit the shared cache" true
    (Prepared_cache.hits cache + Prepared_cache.delta_hits cache > hits0);
  check "second snapshot read far fewer chains" true (chain_reads snap_b * 2 <= reads_a);
  check "same split lsn" true
    (Lsn.equal (As_of_snapshot.split_lsn snap_a) (As_of_snapshot.split_lsn snap_b));
  List.iter
    (fun pid ->
      check_string
        (Printf.sprintf "page %d" (Page_id.to_int pid))
        (As_of_snapshot.page_string snap_a pid)
        (As_of_snapshot.page_string snap_b pid))
    (written_pages db)

let () =
  Alcotest.run "session"
    [
      ( "interleaving",
        [
          Alcotest.test_case "2 writers + 3 readers, seed 7" `Quick test_interleaving_seed_7;
          Alcotest.test_case "2 writers + 3 readers, seed 19" `Quick test_interleaving_seed_19;
        ] );
      ( "prepared_cache",
        [
          Alcotest.test_case "epoch invalidation" `Quick test_epoch_invalidation;
          Alcotest.test_case "shared-cache reuse" `Quick test_shared_cache_reuse;
          Alcotest.test_case "dropped entries released once" `Quick test_cache_releases_dropped;
        ] );
    ]
