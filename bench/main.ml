(* Benchmark harness.

   Usage:
     main.exe [all]              run every paper experiment
     main.exe fig5 fig7 ...      run selected experiments
     main.exe micro              run the Bechamel microbenchmarks (host time)
     main.exe ... --quick        shrink workloads (smoke mode)
     main.exe ... --profile PATH  sample host-time call stacks into PATH
                                (folded stacks) and print the top frames

   Experiment output is the paper-shaped table for each figure/section of
   the evaluation (see DESIGN.md's per-experiment index).  It is
   deterministic: tools/golden holds the expected output of `all --quick`
   and `dune runtest` diffs against it. *)

module Experiments = Rw_experiments.Experiments

(* --- Bechamel microbenchmarks of the core primitives --- *)

module Micro = struct
  open Bechamel
  open Toolkit
  module Page = Rw_storage.Page
  module Page_id = Rw_storage.Page_id
  module Lsn = Rw_storage.Lsn
  module Media = Rw_storage.Media
  module Sim_clock = Rw_storage.Sim_clock
  module Slotted_page = Rw_storage.Slotted_page
  module Checksum = Rw_storage.Checksum
  module Disk = Rw_storage.Disk
  module Log_manager = Rw_wal.Log_manager
  module Log_record = Rw_wal.Log_record
  module Buffer_pool = Rw_buffer.Buffer_pool
  module Lock_manager = Rw_txn.Lock_manager
  module Txn_manager = Rw_txn.Txn_manager

  let test_slotted_insert =
    Test.make ~name:"slotted_page insert+delete"
      (Staged.stage (fun () ->
           let p = Page.create ~id:(Page_id.of_int 0) ~typ:Page.Heap in
           for i = 0 to 19 do
             Slotted_page.insert p ~at:i "0123456789abcdef"
           done;
           for _ = 0 to 19 do
             Slotted_page.delete p ~at:0
           done;
           Page.release p))

  let crc_buf =
    let b = Bytes.create Page.page_size in
    for i = 0 to Page.page_size - 1 do
      Bytes.set b i (Char.chr (i * 31 land 0xff))
    done;
    b

  let test_crc32 =
    Test.make ~name:"crc32 of one 8KiB page"
      (Staged.stage (fun () -> ignore (Checksum.crc32 crc_buf ~pos:0 ~len:Page.page_size)))

  (* The pre-overhaul one-byte-at-a-time kernel: the gap to the row above is
     what the dispatching kernel buys (carry-less multiply where the CPU has
     it, slicing-by-8 + dual streams elsewhere; the run prints which). *)
  let test_crc32_bytewise =
    Test.make ~name:"crc32 bytewise reference (8KiB page)"
      (Staged.stage (fun () ->
           ignore (Checksum.crc32_bytewise crc_buf ~pos:0 ~len:Page.page_size)))

  (* Commit throughput at increasing group-commit batch sizes.  One run =
     [batch] transactions (begin, one 64B row op, commit) and exactly one
     priced log flush, so ns/run divided by [batch] is the per-commit cost. *)
  let test_group_commit ~batch =
    let clock = Sim_clock.create () in
    let log = Log_manager.create ~clock ~media:Media.ram () in
    let locks = Lock_manager.create () in
    let txns = Txn_manager.create ~log ~locks in
    if batch > 1 then
      Txn_manager.set_group_commit txns ~max_batch_bytes:max_int ~max_delay_us:infinity;
    Test.make ~name:(Printf.sprintf "group commit (%d txns/flush)" batch)
      (Staged.stage (fun () ->
           for _ = 1 to batch do
             let txn = Txn_manager.begin_txn txns in
             ignore
               (Txn_manager.log_page_op txns txn ~page:(Page_id.of_int 1)
                  ~prev_page_lsn:Lsn.nil
                  (Log_record.Insert_row { slot = 0; row = String.make 64 'r' }));
             ignore (Txn_manager.commit_begin txns txn ~wall_us:0.0);
             Txn_manager.finished txns txn
           done;
           ignore (Txn_manager.flush_commits txns)))

  (* Same commit path with the trace collector enabled: the gap between
     this row and the trace-off row above is the instrumentation overhead
     (ring-buffer pushes for flush spans and group-ack instants).  With
     tracing off the instrumentation is one load+branch per site; rwbench,
     which runs with tracing off, holds that cost end to end. *)
  let test_group_commit_traced ~batch =
    let clock = Sim_clock.create () in
    let log = Log_manager.create ~clock ~media:Media.ram () in
    let locks = Lock_manager.create () in
    let txns = Txn_manager.create ~log ~locks in
    if batch > 1 then
      Txn_manager.set_group_commit txns ~max_batch_bytes:max_int ~max_delay_us:infinity;
    Rw_obs.Trace.install_clock (fun () -> Sim_clock.now_us clock);
    Test.make ~name:(Printf.sprintf "group commit (%d txns/flush, trace on)" batch)
      (Staged.stage (fun () ->
           Rw_obs.Trace.enable ();
           for _ = 1 to batch do
             let txn = Txn_manager.begin_txn txns in
             ignore
               (Txn_manager.log_page_op txns txn ~page:(Page_id.of_int 1)
                  ~prev_page_lsn:Lsn.nil
                  (Log_record.Insert_row { slot = 0; row = String.make 64 'r' }));
             ignore (Txn_manager.commit_begin txns txn ~wall_us:0.0);
             Txn_manager.finished txns txn
           done;
           ignore (Txn_manager.flush_commits txns);
           Rw_obs.Trace.disable ()))

  (* A pool over [pages] sealed pages on a RAM disk, with room for all of
     them, and a log to flush before each write-back. *)
  let flush_pool pages =
    let clock = Sim_clock.create () in
    let disk = Disk.create ~clock ~media:Media.ram () in
    for i = 0 to pages - 1 do
      let pid = Page_id.of_int i in
      let p = Page.create ~id:pid ~typ:Page.Heap in
      Page.seal p;
      Disk.write_page_nocost disk pid p
    done;
    let log = Log_manager.create ~clock ~media:Media.ram () in
    Buffer_pool.create ~capacity:(2 * pages) ~source:(Buffer_pool.of_disk disk)
      ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn)
      ()

  let dirty pool i =
    let f = Buffer_pool.fetch pool (Page_id.of_int i) in
    Buffer_pool.mark_dirty pool f ~lsn:(Page.lsn (Buffer_pool.page f));
    Buffer_pool.unpin pool f

  (* Sorted checkpoint flush: dirty a contiguous range of pages, write them
     back as one run (one seek, the rest sequential). *)
  let test_checkpoint_flush =
    let pages = 64 in
    let pool = flush_pool pages in
    Test.make ~name:(Printf.sprintf "checkpoint flush (%d dirty pages)" pages)
      (Staged.stage (fun () ->
           for i = 0 to pages - 1 do
             dirty pool i
           done;
           Buffer_pool.flush_all pool))

  (* A checkpoint of a large, mostly clean pool, as the as-of snapshots of
     a TPC-C run force one: 1,000 pages resident, four of them dirty, far
     apart.  Its cost against the row above shows whether a flush reads
     every frame or only the dirty ones. *)
  let test_checkpoint_flush_sparse =
    let pool = flush_pool 1000 in
    for i = 0 to 999 do
      dirty pool i
    done;
    Buffer_pool.flush_all pool;
    Test.make ~name:"checkpoint flush (4 dirty of 1,000 resident)"
      (Staged.stage (fun () ->
           for k = 0 to 3 do
             dirty pool ((k * 250) + 7)
           done;
           Buffer_pool.flush_all pool))

  let test_log_append =
    let clock = Sim_clock.create () in
    let log = Log_manager.create ~clock ~media:Media.ram () in
    let record =
      Log_record.make
        (Log_record.Page_op
           {
             page = Page_id.of_int 1;
             prev_page_lsn = Lsn.nil;
             op = Log_record.Insert_row { slot = 0; row = String.make 64 'r' };
           })
    in
    Test.make ~name:"log append (64B row record)"
      (Staged.stage (fun () -> ignore (Log_manager.append log record)))

  (* The same append against 4 KiB segments, so the run crosses seal
     boundaries every ~45 records.  Retention truncation every few
     segments keeps the log's resident footprint flat across the many
     Bechamel iterations — the amortized cost of sealing, spilling and
     O(1) segment drops is folded into this row. *)
  let test_log_append_sealing =
    let seg_bytes = 4096 in
    let clock = Sim_clock.create () in
    let log = Log_manager.create ~clock ~media:Media.ram ~segment_bytes:seg_bytes () in
    let record =
      Log_record.make
        (Log_record.Page_op
           {
             page = Page_id.of_int 1;
             prev_page_lsn = Lsn.nil;
             op = Log_record.Insert_row { slot = 0; row = String.make 64 'r' };
           })
    in
    Test.make ~name:"log append with sealing (4KiB segments)"
      (Staged.stage (fun () ->
           ignore (Log_manager.append log record);
           if Log_manager.segment_count log > 8 then begin
             Log_manager.flush_all log;
             Log_manager.truncate_before log
               (Lsn.of_int (Lsn.to_int (Log_manager.end_lsn log) - (4 * seg_bytes)))
           end))

  (* O(1) retention truncation: fill four 1 KiB segments, then drop them
     all with one [truncate_before].  The refill is part of the measured
     run (the log must be regrown every iteration), so read this row as
     "append 4 segments + drop 4 segments", not truncation alone — the
     point it guards is that the drop stays cheap as segments seal. *)
  let test_log_truncate_segments =
    let clock = Sim_clock.create () in
    let log = Log_manager.create ~clock ~media:Media.ram ~segment_bytes:1024 () in
    let record =
      Log_record.make
        (Log_record.Page_op
           {
             page = Page_id.of_int 1;
             prev_page_lsn = Lsn.nil;
             op = Log_record.Insert_row { slot = 0; row = String.make 64 'r' };
           })
    in
    Test.make ~name:"log truncate (drop 4 segments)"
      (Staged.stage (fun () ->
           while Log_manager.segment_count log < 5 do
             ignore (Log_manager.append log record)
           done;
           Log_manager.flush_all log;
           Log_manager.truncate_before log (Log_manager.end_lsn log)))

  let test_record_codec =
    let record =
      Log_record.make
        (Log_record.Page_op
           {
             page = Page_id.of_int 1;
             prev_page_lsn = Lsn.of_int 123;
             op =
               Log_record.Update_row
                 { slot = 3; before = String.make 60 'b'; after = String.make 60 'a' };
           })
    in
    Test.make ~name:"log record encode+decode"
      (Staged.stage (fun () -> ignore (Log_record.decode (Log_record.encode record))))

  (* One page with a 400-modification history; each run rewinds a copy of
     the final image all the way back. *)
  let prepare_env
      ?(mk_log = fun clock -> Log_manager.create ~clock ~media:Media.ram ~cache_blocks:4096 ())
      () =
    let clock = Sim_clock.create () in
    let log = mk_log clock in
    let pid = Page_id.of_int 0 in
    let page = Page.create ~id:pid ~typ:Page.Heap in
    let append op =
      let prev = Page.lsn page in
      let lsn =
        Log_manager.append log
          (Log_record.make (Log_record.Page_op { page = pid; prev_page_lsn = prev; op }))
      in
      Log_record.redo pid op page;
      Page.set_lsn page lsn
    in
    append (Log_record.Format { typ = Page.Heap; level = 0 });
    for i = 1 to 400 do
      if i mod 3 = 0 && Slotted_page.count page > 0 then
        append (Log_record.Delete_row { slot = 0; row = Slotted_page.get page ~at:0 })
      else append (Log_record.Insert_row { slot = 0; row = Printf.sprintf "row-%04d" i })
    done;
    (log, page)

  let test_prepare_page =
    let log, page = prepare_env () in
    Test.make ~name:"prepare_page_as_of (400-op rewind)"
      (Staged.stage (fun () ->
           let copy = Page.copy page in
           ignore (Rw_core.Page_undo.prepare_page_as_of ~log ~page:copy ~as_of:(Lsn.of_int 1))))

  (* The same 400-op rewind with the history sealed into 4 KiB segments
     behind a deliberately starved block cache (two 256 B blocks), so
     every run re-faults the chain from spilled segments — the cold end of
     the segment tier. *)
  let test_prepare_page_cold =
    let log, page =
      prepare_env
        ~mk_log:(fun clock ->
          Log_manager.create ~clock ~media:Media.ram ~cache_blocks:2 ~block_bytes:256
            ~segment_bytes:4096 ())
        ()
    in
    Test.make ~name:"prepare_page_as_of (cold segment)"
      (Staged.stage (fun () ->
           let copy = Page.copy page in
           ignore (Rw_core.Page_undo.prepare_page_as_of ~log ~page:copy ~as_of:(Lsn.of_int 1))))

  (* A second overlapping snapshot at the same SplitLSN: the 400-op chain
     rewind above collapses to a prepared-page cache probe plus one page
     copy.  The gap to the full-rewind row is what the shared cache buys
     concurrent readers (E8); ci.sh holds it to under a tenth of that row. *)
  let test_prepare_page_shared =
    let log, page = prepare_env () in
    let cache = Rw_core.Prepared_cache.create ~log in
    let image = Page.copy page in
    ignore (Rw_core.Page_undo.prepare_page_as_of ~log ~page:image ~as_of:(Lsn.of_int 1));
    Rw_core.Prepared_cache.add cache (Page_id.of_int 0) ~as_of:(Lsn.of_int 1) image;
    Test.make ~name:"prepare_page_as_of (shared-cache hit)"
      (Staged.stage (fun () ->
           match Rw_core.Prepared_cache.find cache (Page_id.of_int 0) ~split:(Lsn.of_int 1) with
           | Rw_core.Prepared_cache.Exact _ -> ()
           | _ -> assert false))

  (* One writer transaction at the E8 operating point: a small TPC-C
     database with 8 as-of reader sessions open (each pinning its own
     snapshot at a staggered SplitLSN).  Prices what one writer txn costs
     next to a reader fleet — the numerator of the E8 tpmC curve. *)
  let test_e8_writer_txn =
    let module Tpcc = Rw_workload.Tpcc in
    let module Engine = Rw_engine.Engine in
    let module Database = Rw_engine.Database in
    let module Session_manager = Rw_session.Session_manager in
    let eng = Engine.create ~media:Media.ram () in
    let db = Engine.create_database eng ~pool_capacity:1024 "tpcc" in
    let cfg = Tpcc.small_config in
    Tpcc.load db cfg;
    ignore (Database.checkpoint db);
    let drv = Tpcc.create db cfg in
    let t0 = Engine.now_us eng in
    ignore (Tpcc.run_mix drv ~txns:150);
    let t1 = Engine.now_us eng in
    let sm = Session_manager.create db in
    for i = 0 to 7 do
      let frac = 0.10 +. (0.50 *. float_of_int i /. 7.0) in
      ignore
        (Session_manager.open_reader sm
           ~name:(Printf.sprintf "bench_rd_%d" i)
           ~wall_us:(t1 -. (frac *. (t1 -. t0)))
           ~step:(fun _ -> ()))
    done;
    Test.make ~name:"e8 writer txn (8 readers)"
      (Staged.stage (fun () -> ignore (Tpcc.run_mix drv ~txns:1)))

  (* The record-at-a-time reference walk over the same history: the gap
     between this row and the one above is what the chain index and the
     in-place undo kernel buy. *)
  let test_prepare_page_walk =
    let log, page = prepare_env () in
    Test.make ~name:"prepare_page_as_of_walk (400-op rewind)"
      (Staged.stage (fun () ->
           let copy = Page.copy page in
           ignore (Rw_core.Page_undo.prepare_page_as_of_walk ~log ~page:copy ~as_of:(Lsn.of_int 1))))

  (* Rebuilding the same page purely from its log chain — the medium-
     recovery path taken when a fetch fails its checksum.  Replays the
     whole history forward from the Format base record. *)
  let test_page_repair =
    let log, _page = prepare_env () in
    Test.make ~name:"page_repair rebuild (400-op chain)"
      (Staged.stage (fun () ->
           ignore (Rw_recovery.Page_repair.rebuild ~log (Page_id.of_int 0))))

  (* Flush [db]'s pool and keep a copy of every page on its disk; the
     returned thunk drops the pool and writes the copies back, so each run
     of a redo row starts from the same pages. *)
  let restorer db =
    let disk = Rw_engine.Database.disk db and pool = Rw_engine.Database.pool db in
    Buffer_pool.flush_all pool;
    let baseline =
      List.map (fun pid -> (pid, Disk.read_page_nocost disk pid)) (Disk.written_page_ids disk)
    in
    fun () ->
      Buffer_pool.drop_all pool;
      List.iter (fun (pid, p) -> Disk.write_page_nocost disk pid p) baseline

  (* Restart recovery at a fixed operating point: a database whose log
     carries a few thousand committed update records past its last
     checkpoint, written in stride order so consecutive records land on
     different pages, and a buffer pool smaller than the redo working set
     — the realistic restart regime (an OLTP tail interleaves pages, and a
     cold pool does not hold the working set).  The analysis-only row
     prices what instant restart pays before the engine opens.  The
     full-replay row adds record-at-a-time redo, which re-fetches (and
     evicts) pages as the log interleaves them; the parallel row's
     page-partitioned redo groups each page's records and touches every
     page once per batch, which is where its win comes from even before
     any domain fan-out (worker domains are capped at the core count).
     Each run restores the on-disk pages to their checkpoint state first —
     redo is idempotent, so without the restore later iterations would
     measure a no-op replay against already-recovered pages. *)
  let recovery_env =
    lazy
      (let module Database = Rw_engine.Database in
       let db =
         Database.create ~name:"bench_rec" ~clock:(Sim_clock.create ()) ~media:Media.ram
           ~pool_capacity:48 ~checkpoint_interval_us:1e15 ()
       in
       Rw_experiments.Harness.load_rows db ~rows:1600;
       Rw_experiments.Harness.rewrite_rows db ~rows:1600 ~rounds:4;
       (Database.log db, Database.pool db, restorer db))

  let test_recovery_analysis =
    Test.make ~name:"recovery-analysis-only"
      (Staged.stage (fun () ->
           let log, _pool, _restore = Lazy.force recovery_env in
           ignore
             (Rw_recovery.Recovery.analyze ~log
                ~start:(Log_manager.last_checkpoint log)
                ~upto:(Log_manager.end_lsn log))))

  (* Full restart recovery at a forced pool fan-out: 1 replays every page
     on the calling domain, 4 spreads each redo batch over up to four.  The
     fan-out is set once around the whole row (and restored to [None] when
     it ends), not per iteration: changing the cap retires or spawns
     worker domains, which would swamp the redo being measured. *)
  let test_recovery_full ~fanout =
    let name = if fanout = 1 then "recovery-full-replay" else "recovery-parallel-redo-4" in
    Test.make_with_resource ~name Test.uniq
      ~allocate:(fun () -> Rw_pool.Domain_pool.set_fanout (Some fanout))
      ~free:(fun () -> Rw_pool.Domain_pool.set_fanout None)
      (Staged.stage (fun () ->
           let log, pool, restore = Lazy.force recovery_env in
           restore ();
           ignore (Rw_recovery.Recovery.recover ~log ~pool ())))

  (* Replica catch-up apply rate: the continuous redo a log-shipping
     replica runs on every ingested shipment.  The env bootstraps a
     replica from the primary's checkpoint (save/load), writes more
     history on the primary, and ships it into the replica's log WITHOUT
     applying; each run resets the replica's pages to the bootstrap
     images and replays the whole shipped backlog with the page-grouped
     redo — the apply path of [Rw_repl.Replica.ingest] at a fixed
     operating point. *)
  let replica_env =
    lazy
      (let module Database = Rw_engine.Database in
       let clock = Sim_clock.create () in
       let db =
         Database.create ~name:"bench_repl_prim" ~clock ~media:Media.ram ~pool_capacity:48
           ~checkpoint_interval_us:1e15 ()
       in
       Rw_experiments.Harness.load_rows db ~rows:1600;
       let path = Filename.temp_file "bench_replica" ".db" in
       Database.save db ~path;
       let rdb = Database.load ~clock ~media:Media.ram ~path () in
       Sys.remove path;
       Rw_experiments.Harness.rewrite_rows db ~rows:1600 ~rounds:4;
       let rlog = Database.log rdb in
       let from = Log_manager.end_lsn rlog in
       let rec pump lsn =
         match Log_manager.export_from (Database.log db) ~from:lsn with
         | None -> ()
         | Some ex ->
             ignore (Log_manager.ingest_entries rlog ex.Log_manager.ex_entries);
             pump ex.Log_manager.ex_next
       in
       pump from;
       (rlog, Database.pool rdb, from, Log_manager.end_lsn rlog, restorer rdb))

  (* What-if selective undo at a fixed operating point: a 64-transaction
     single-table history whose first half chains through shared pages
     and whose second half writes private pages.  The graph-build row
     prices the build from the write-set index (no log scan); the replay rows
     price the non-mutating target computation ([Selective.preview]) for
     a mid-history victim — selective replay touches only the victim's
     dependent set, the full-rewind baseline recomputes every later
     transaction, and the gap between the two rows is e11's claim at
     microbenchmark scale. *)
  let whatif_env =
    lazy
      (let module Database = Rw_engine.Database in
       let module Row = Rw_engine.Row in
       let module Schema = Rw_catalog.Schema in
       let clock = Sim_clock.create () in
       let db = Database.create ~name:"bench_whatif" ~clock ~media:Media.ram () in
       let cols =
         [
           { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text };
         ]
       in
       let value r k =
         let head = Printf.sprintf "r%03d-k%03d-" r k in
         head ^ String.make (600 - String.length head) 'x'
       in
       (* 600 B rows: keys 20 apart land on distinct leaves, so the
          page-level dependency structure is the one constructed here. *)
       Database.with_txn db (fun txn ->
           ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
           for k = 0 to 199 do
             Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value 0 k) ]
           done);
       ignore (Database.checkpoint db);
       let history = 64 and chain = 32 in
       let graph0 = Rw_whatif.Dep_graph.build ~log:(Database.log db) in
       let base_nodes = Rw_whatif.Dep_graph.node_count graph0 in
       for i = 1 to history do
         let keys = if i <= chain then [ 0; 20 ] else [ 40 + (20 * ((i - chain) mod 8)) ] in
         Database.with_txn db (fun txn ->
             List.iter
               (fun k ->
                 Database.update db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value i k) ])
               keys)
       done;
       let log = Database.log db in
       let graph = Rw_whatif.Dep_graph.build ~log in
       let victim =
         (List.nth (Rw_whatif.Dep_graph.nodes graph) (base_nodes + 4)).Rw_wal.Log_manager.ts_txn
       in
       (Database.ctx db, log, graph, victim))

  let test_dep_graph_build =
    Test.make ~name:"dep-graph-build (64-txn history)"
      (Staged.stage (fun () ->
           let _ctx, log, _graph, _victim = Lazy.force whatif_env in
           ignore (Rw_whatif.Dep_graph.build ~log)))

  let test_selective_replay =
    Test.make ~name:"selective-replay-vs-full-rewind: selective"
      (Staged.stage (fun () ->
           let ctx, log, graph, victim = Lazy.force whatif_env in
           match Rw_whatif.Selective.preview ~ctx ~log ~graph ~victim () with
           | Ok _ -> ()
           | Error _ -> assert false))

  let test_full_rewind =
    Test.make ~name:"selective-replay-vs-full-rewind: full baseline"
      (Staged.stage (fun () ->
           let ctx, log, graph, victim = Lazy.force whatif_env in
           match
             Rw_whatif.Selective.preview ~ctx ~log ~graph ~victim
               ~scope:Rw_whatif.Selective.All_successors ()
           with
           | Ok _ -> ()
           | Error _ -> assert false))

  let test_replica_catchup =
    Test.make ~name:"replica-catchup-apply (parallel redo)"
      (Staged.stage (fun () ->
           let log, pool, from, upto, restore = Lazy.force replica_env in
           restore ();
           ignore (Rw_recovery.Recovery.redo_range ~log ~pool ~from ~upto)))

  let tests =
    Test.make_grouped ~name:"core-primitives"
      [
        test_slotted_insert;
        test_crc32;
        test_crc32_bytewise;
        test_log_append;
        test_log_append_sealing;
        test_log_truncate_segments;
        test_record_codec;
        test_prepare_page;
        test_prepare_page_cold;
        test_prepare_page_shared;
        test_prepare_page_walk;
        test_e8_writer_txn;
        test_page_repair;
        test_recovery_analysis;
        test_recovery_full ~fanout:1;
        test_recovery_full ~fanout:4;
        test_replica_catchup;
        test_dep_graph_build;
        test_selective_replay;
        test_full_rewind;
        test_group_commit ~batch:1;
        test_group_commit ~batch:8;
        test_group_commit ~batch:64;
        test_group_commit_traced ~batch:8;
        test_checkpoint_flush;
        test_checkpoint_flush_sparse;
      ]

  let run () =
    print_endline "\n=== Microbenchmarks (Bechamel, host monotonic clock) ===";
    Printf.printf "crc32 kernel: %s\n" Checksum.kernel;
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
    let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name v acc ->
          let est = match Analyze.OLS.estimates v with Some (t :: _) -> t | _ -> nan in
          (name, est) :: acc)
        results []
      |> List.sort compare
    in
    Printf.printf "%-55s %15s\n" "benchmark" "host time/run";
    List.iter
      (fun (name, ns) ->
        let pretty =
          if Float.is_nan ns then "n/a"
          else if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
          else if ns < 1_000_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
          else Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
        in
        Printf.printf "%-55s %15s\n" name pretty)
      rows;
    print_newline ()
end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let rec split_profile = function
    | "--profile" :: path :: rest -> (Some path, rest)
    | [ "--profile" ] ->
        prerr_endline "--profile needs a PATH";
        exit 2
    | a :: rest ->
        let p, rest = split_profile rest in
        (p, a :: rest)
    | [] -> (None, [])
  in
  let profile, args = split_profile args in
  let args = List.filter (fun a -> a <> "--quick") args in
  Rw_prof.Sampler.with_profile profile @@ fun () ->
  List.iter
    (fun arg ->
      match arg with
      | "all" -> Experiments.run_all ~quick ()
      | "micro" -> Micro.run ()
      | _ -> (
          match List.assoc_opt arg Experiments.all with
          | Some run -> run ~quick ()
          | None ->
              Printf.eprintf "unknown experiment %S (expected: %s, micro, all)\n" arg
                (String.concat ", " (List.map fst Experiments.all));
              exit 2))
    (if args = [] then [ "all" ] else args)
