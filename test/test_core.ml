(* Tests for the paper's core machinery: PreparePageAsOf, the SplitLSN
   search, as-of snapshots and retention. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Disk = Rw_storage.Disk
module Prng = Rw_storage.Prng
module Log_manager = Rw_wal.Log_manager
module Log_record = Rw_wal.Log_record
module Buffer_pool = Rw_buffer.Buffer_pool
module Txn_manager = Rw_txn.Txn_manager
module Access_ctx = Rw_access.Access_ctx
module Page_undo = Rw_core.Page_undo
module Split_lsn = Rw_core.Split_lsn
module Retention = Rw_core.Retention
module As_of_snapshot = Rw_core.As_of_snapshot
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]

(* --- prepare_page_as_of, golden-history property ---

   Drive random modifications against a single page through the full modify
   path, remembering the page image after every committed operation.  Then
   rewinding the current page to each recorded LSN must reproduce the
   recorded image exactly. *)

type env = { clock : Sim_clock.t; log : Log_manager.t; txns : Txn_manager.t; ctx : Access_ctx.t; pool : Buffer_pool.t }

let mk_env ?fpi ?segment_bytes () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let log = Log_manager.create ~clock ~media:Media.ram ?segment_bytes () in
  let pool =
    Buffer_pool.create ~capacity:64 ~source:(Buffer_pool.of_disk disk)
      ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn)
      ()
  in
  let locks = Rw_txn.Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let ctx = Access_ctx.create ~pool ~txns ~log ~clock ?fpi () in
  { clock; log; txns; ctx; pool }

let page_image env pid =
  Buffer_pool.with_page env.pool pid ~mode:Rw_buffer.Latch.Shared (fun p -> Bytes.to_string p)

let random_history ?fpi ~ops () =
  let env = mk_env ?fpi () in
  let pid = Page_id.of_int 0 in
  let rng = Prng.create 7 in
  let txn = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx txn pid (Log_record.Format { typ = Page.Heap; level = 0 });
  let history = ref [] in
  let record () =
    let img = page_image env pid in
    history := (Lsn.to_int (Page.lsn (Bytes.of_string img)), img) :: !history
  in
  record ();
  let nrows = ref 0 in
  for _ = 1 to ops do
    let choice = Prng.int rng 100 in
    (if choice < 50 || !nrows = 0 then begin
       let row = Prng.alpha_string rng (1 + Prng.int rng 60) in
       Access_ctx.modify env.ctx txn pid
         (Log_record.Insert_row { slot = Prng.int rng (!nrows + 1); row });
       incr nrows
     end
     else if choice < 75 then begin
       let at = Prng.int rng !nrows in
       let before =
         Buffer_pool.with_page env.pool pid ~mode:Rw_buffer.Latch.Shared (fun p ->
             Rw_storage.Slotted_page.get p ~at)
       in
       Access_ctx.modify env.ctx txn pid
         (Log_record.Update_row { slot = at; before; after = Prng.alpha_string rng (1 + Prng.int rng 60) })
     end
     else begin
       let at = Prng.int rng !nrows in
       let row =
         Buffer_pool.with_page env.pool pid ~mode:Rw_buffer.Latch.Shared (fun p ->
             Rw_storage.Slotted_page.get p ~at)
       in
       Access_ctx.modify env.ctx txn pid (Log_record.Delete_row { slot = at; row });
       decr nrows
     end);
    record ()
  done;
  Txn_manager.commit env.txns txn ~wall_us:0.0;
  (env, pid, List.rev !history)

(* Logical page content; rewinds restore records and headers exactly but
   not internal free-space bookkeeping. *)
let canonical img =
  let p = Bytes.of_string img in
  ( Page.lsn p,
    Page.typ p,
    Page.level p,
    Page.prev_page p,
    Page.next_page p,
    Page.special p,
    List.init (Rw_storage.Slotted_page.count p) (fun i -> Rw_storage.Slotted_page.get p ~at:i) )

let run_golden ?fpi () =
  let env, pid, history = random_history ?fpi ~ops:120 () in
  let current = page_image env pid in
  List.iter
    (fun (as_of_int, expected) ->
      let page = Bytes.of_string current in
      let result =
        Page_undo.prepare_page_as_of ~log:env.log ~page ~as_of:(Lsn.of_int as_of_int)
      in
      ignore result;
      if canonical (Bytes.to_string page) <> canonical expected then
        Alcotest.failf "rewind to lsn %d did not reproduce history" as_of_int)
    history

let test_prepare_golden () = run_golden ~fpi:Access_ctx.Off ()
let test_prepare_golden_with_fpi () = run_golden ~fpi:(Access_ctx.Every_mods 10) ()

let test_prepare_noop_when_old () =
  let env, pid, _ = random_history ~ops:20 () in
  let current = page_image env pid in
  let page = Bytes.of_string current in
  let r = Page_undo.prepare_page_as_of ~log:env.log ~page ~as_of:(Page.lsn page) in
  check_int "no ops undone" 0 r.Page_undo.ops_undone;
  check "bytes untouched" true (Bytes.to_string page = current)

let test_fpi_reduces_reads () =
  (* With frequent FPIs, rewinding a heavily-modified page far back must
     read fewer log records than without. *)
  let env1, pid1, _ = random_history ~fpi:Access_ctx.Off ~ops:300 () in
  let p1 = Bytes.of_string (page_image env1 pid1) in
  let r1 = Page_undo.prepare_page_as_of ~log:env1.log ~page:p1 ~as_of:(Lsn.of_int 1) in
  let env2, pid2, _ = random_history ~fpi:(Access_ctx.Every_mods 20) ~ops:300 () in
  let p2 = Bytes.of_string (page_image env2 pid2) in
  let r2 = Page_undo.prepare_page_as_of ~log:env2.log ~page:p2 ~as_of:(Lsn.of_int 1) in
  check "fpi used" true r2.Page_undo.used_fpi;
  check "fewer records read with fpi" true
    (r2.Page_undo.log_records_read < r1.Page_undo.log_records_read)

(* The batched rewind must be indistinguishable from the pointer walk: on
   the same history it must produce byte-identical pages and the same
   result counters, and — reading a cold log — transfer the same log
   blocks.  It reads them in ascending order, so a run of adjacent
   blocks costs one seek where the walk, reading backwards, seeks per
   block: it never seeks more often than the walk.  The two
   Prng-seeded histories are identical, so each implementation gets its own
   environment and their effects are compared directly. *)
let test_batched_matches_walk () =
  let module Io_stats = Rw_storage.Io_stats in
  List.iter
    (fun (ops, fpi) ->
      let env1, pid1, history = random_history ~fpi ~ops () in
      let env2, pid2, _ = random_history ~fpi ~ops () in
      let current = page_image env1 pid1 in
      check "deterministic histories" true (current = page_image env2 pid2);
      (* Rebuild each log into a fresh manager with a tiny block cache so
         every rewind below starts cold and block charges are observable. *)
      let mk_cold src =
        let clock = Sim_clock.create () in
        let log = Log_manager.create ~clock ~media:Media.ssd ~cache_blocks:2 () in
        Log_manager.restore_entries log (Log_manager.dump_entries src);
        log
      in
      List.iteri
        (fun i (as_of_int, _) ->
          if i mod 20 = 0 then begin
            let as_of = Lsn.of_int as_of_int in
            let cold1 = mk_cold env1.log and cold2 = mk_cold env2.log in
            let p1 = Bytes.of_string current and p2 = Bytes.of_string current in
            let s1 = Io_stats.copy (Log_manager.stats cold1) in
            let s2 = Io_stats.copy (Log_manager.stats cold2) in
            let r1 = Page_undo.prepare_page_as_of ~log:cold1 ~page:p1 ~as_of in
            let r2 = Page_undo.prepare_page_as_of_walk ~log:cold2 ~page:p2 ~as_of in
            check "byte-identical page" true (Bytes.equal p1 p2);
            check_int "same ops undone" r2.Page_undo.ops_undone r1.Page_undo.ops_undone;
            check_int "same records read" r2.Page_undo.log_records_read
              r1.Page_undo.log_records_read;
            check "same fpi decision" true (r1.Page_undo.used_fpi = r2.Page_undo.used_fpi);
            let d1 = Io_stats.diff (Log_manager.stats cold1) s1 in
            let d2 = Io_stats.diff (Log_manager.stats cold2) s2 in
            check_int "same cold blocks read" d2.Io_stats.log_block_misses
              d1.Io_stats.log_block_misses;
            check_int "same cold bytes read"
              (d2.Io_stats.random_read_bytes + d2.Io_stats.seq_read_bytes)
              (d1.Io_stats.random_read_bytes + d1.Io_stats.seq_read_bytes);
            check "no more seeks than the walk" true
              (d1.Io_stats.random_reads <= d2.Io_stats.random_reads)
          end)
        history)
    Access_ctx.[ (120, Off); (120, Every_mods 15); (40, Every_mods 4) ]

let test_chain_broken_detection () =
  let env, pid, _ = random_history ~ops:5 () in
  let page = Bytes.of_string (page_image env pid) in
  (* Point the page at a foreign record: a Begin record. *)
  let foreign = Log_manager.append env.log (Log_record.make Log_record.Begin) in
  Page.set_lsn page foreign;
  (try
     ignore (Page_undo.prepare_page_as_of ~log:env.log ~page ~as_of:Lsn.nil);
     Alcotest.fail "expected Chain_broken"
   with Page_undo.Chain_broken _ -> ())

(* A chain whose second undo raises: the newest record deletes slot 0,
   the one below it deletes slot 5 of a page that no longer has one.  A
   failed apply must hand the fallback the page as it was before the
   apply, so the serial path's outcome is exactly the walk's on the
   original image — from the appended log and from a restored copy
   alike. *)
let test_failed_apply_restores_page () =
  let pid = Page_id.of_int 4 in
  let clock = Sim_clock.create () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let append prev op =
    Log_manager.append log
      (Log_record.make (Log_record.Page_op { page = pid; prev_page_lsn = prev; op }))
  in
  let l1 = append Lsn.nil (Log_record.Format { typ = Page.Heap; level = 0 }) in
  let l2 = append l1 (Log_record.Insert_row { slot = 5; row = "ghost" }) in
  let l3 = append l2 (Log_record.Insert_row { slot = 0; row = "only" }) in
  let original = Page.create ~id:pid ~typ:Page.Heap in
  Rw_storage.Slotted_page.insert original ~at:0 "only";
  Page.set_lsn original l3;
  let cold = Log_manager.create ~clock ~media:Media.ram () in
  Log_manager.restore_entries cold (Log_manager.dump_entries log);
  let outcome f =
    let page = Bytes.copy original in
    match f page with
    | r -> Ok (r.Page_undo.ops_undone, Bytes.to_string page)
    | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun (label, log) ->
      let page = Bytes.copy original in
      let plans, _ = Page_undo.plan_batch ~log ~as_of:l1 [| page |] in
      check (label ^ ": apply rejected") true
        (Page_undo.apply_raw ~page ~as_of:l1 plans.(0) = None);
      check (label ^ ": page restored") true (Bytes.equal page original);
      let walk = outcome (fun page -> Page_undo.prepare_page_as_of_walk ~log ~page ~as_of:l1) in
      check (label ^ ": the walk raises") true (Result.is_error walk);
      check (label ^ ": serial path = walk on the original") true
        (outcome (fun page -> Page_undo.prepare_page_as_of ~log ~page ~as_of:l1) = walk))
    [ ("appended", log); ("restored", cold) ]

(* A broken chain in a batch of healthy ones: the gather is shared, but
   only the broken page's apply is rejected and only it takes the walk;
   its neighbours rewind exactly as the walk would. *)
let test_broken_page_in_batch () =
  let clock = Sim_clock.create () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let append pid prev op =
    Log_manager.append log
      (Log_record.make (Log_record.Page_op { page = pid; prev_page_lsn = prev; op }))
  in
  let format pid = append pid Lsn.nil (Log_record.Format { typ = Page.Heap; level = 0 }) in
  let broken = Page_id.of_int 4 and healthy = [ Page_id.of_int 5; Page_id.of_int 6 ] in
  let b1 = format broken in
  let h = List.map (fun pid -> (pid, ref (format pid))) healthy in
  let as_of = Log_manager.end_lsn log in
  let insert (pid, top) slot row =
    top := append pid !top (Log_record.Insert_row { slot; row })
  in
  (* The broken chain (its older record inserts at a slot the page never
     has) interleaves with the healthy chains in the log. *)
  List.iter (fun p -> insert p 0 "a") h;
  let b2 = append broken b1 (Log_record.Insert_row { slot = 5; row = "ghost" }) in
  List.iter (fun p -> insert p 1 "b") h;
  let b3 = append broken b2 (Log_record.Insert_row { slot = 0; row = "only" }) in
  let image pid top rows =
    let page = Page.create ~id:pid ~typ:Page.Heap in
    List.iteri (fun i row -> Rw_storage.Slotted_page.insert page ~at:i row) rows;
    Page.set_lsn page top;
    page
  in
  let originals =
    [|
      image (fst (List.nth h 0)) !(snd (List.nth h 0)) [ "a"; "b" ];
      image broken b3 [ "only" ];
      image (fst (List.nth h 1)) !(snd (List.nth h 1)) [ "a"; "b" ];
    |]
  in
  let pages = Array.map Bytes.copy originals in
  let plans, _ = Page_undo.plan_batch ~log ~as_of pages in
  let results = Array.mapi (fun i page -> Page_undo.apply_raw ~page ~as_of plans.(i)) pages in
  check "healthy neighbours applied" true
    (Option.is_some results.(0) && Option.is_some results.(2));
  check "broken page rejected" true (Option.is_none results.(1));
  check "broken page restored" true (Bytes.equal pages.(1) originals.(1));
  List.iter
    (fun i ->
      let walked = Bytes.copy originals.(i) in
      ignore (Page_undo.prepare_page_as_of_walk ~log ~page:walked ~as_of);
      check "neighbour equals the walk" true (Bytes.equal pages.(i) walked))
    [ 0; 2 ];
  (* Rerun each page the batch rejected through the serial path: only the
     broken page falls back to the walk. *)
  let before = Rw_obs.Metrics.counter_value Rw_obs.Probes.walk_fallbacks in
  Array.iteri
    (fun i page ->
      if Option.is_none results.(i) then
        match Page_undo.prepare_page_as_of ~log ~page ~as_of with
        | _ -> ()
        | exception _ -> ())
    pages;
  check_int "one walk fallback" 1
    (Rw_obs.Metrics.counter_value Rw_obs.Probes.walk_fallbacks - before)

(* The serial rewind is a batch of one: reading a page through the
   snapshot's read path and materialising it with [materialize_batch [p]]
   — each on its own copy of one deterministic history, over a cold log —
   leave the same page bytes (or the same exception) and the same priced
   I/O, with and without full page images, and with every page's
   jump-start image damaged, so that each apply is rejected and the page
   takes the walk without gathering its chain again. *)
let test_batch_of_one_matches_serial () =
  let module Io_stats = Rw_storage.Io_stats in
  let build (fpi, damaged) =
    let clock = Sim_clock.create () in
    let db =
      Database.create ~name:"one" ~clock ~media:Media.ram ~log_media:Media.ssd
        ~log_cache_blocks:2 ~log_block_bytes:256 ~fpi ~checkpoint_interval_us:1e15 ()
    in
    let row r i =
      [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "%d-%03d-%s" r i (String.make 40 'x')) ]
    in
    Database.with_txn db (fun txn ->
        ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
        for i = 1 to 300 do
          Database.insert db txn ~table:"t" (row 0 i)
        done);
    ignore (Database.checkpoint db);
    let t_mid = Sim_clock.now_us clock in
    for r = 1 to 3 do
      Database.with_txn db (fun txn ->
          for j = 0 to 299 do
            Database.update db txn ~table:"t" (row r ((j * 37 mod 300) + 1))
          done)
    done;
    let view = Database.create_as_of_snapshot ~shared:false db ~name:"past" ~wall_us:t_mid in
    let snap = Option.get (Database.snapshot_handle view) in
    (if damaged then
       let log = Database.log db and disk = Database.disk db in
       for i = 0 to Disk.page_count disk - 1 do
         let pid = Page_id.of_int i in
         match Log_manager.earliest_fpi_after log pid ~after:(As_of_snapshot.split_lsn snap) with
         | Some f when Disk.has_page disk pid ->
             (* The image length, as in [test_corrupt_image_falls_back]. *)
             let g = Option.get (Log_manager.gather_batch log [| [| f |] |]).Log_manager.b_pages.(0) in
             let at = g.Log_manager.g_pos.(0) + 35 and blob = g.Log_manager.g_blob.(0) in
             Bytes.set blob at (Char.chr (Char.code (Bytes.get blob at) lxor 0x01))
         | _ -> ()
       done);
    (db, snap)
  in
  List.iter
    (fun (name, fpi, damaged) ->
      let db_s, snap_s = build (fpi, damaged) in
      let db_b, snap_b = build (fpi, damaged) in
      let disk = Database.disk db_s in
      let raw snap pid =
        Buffer_pool.with_page (As_of_snapshot.pool snap) pid ~mode:Rw_buffer.Latch.Shared
          Bytes.to_string
      in
      let stats db = (Log_manager.stats (Database.log db), Disk.stats (Database.disk db)) in
      let measure db f =
        let log0, disk0 = stats db in
        let log0 = Io_stats.copy log0 and disk0 = Io_stats.copy disk0 in
        let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
        let log1, disk1 = stats db in
        (v, Io_stats.diff log1 log0, Io_stats.diff disk1 disk0)
      in
      for i = 0 to Disk.page_count disk - 1 do
        let pid = Page_id.of_int i in
        if Disk.has_page disk pid then begin
          let serial, log_s, disk_s = measure db_s (fun () -> raw snap_s pid) in
          let batch, log_b, disk_b =
            measure db_b (fun () -> ignore (As_of_snapshot.materialize_batch snap_b [ pid ]))
          in
          let label = Printf.sprintf "fpi %s page %d" name i in
          check (label ^ ": same bytes") true
            (serial = Result.map (fun () -> raw snap_b pid) batch);
          check (label ^ ": same log I/O") true (log_s = log_b);
          check (label ^ ": same data I/O") true (disk_s = disk_b)
        end
      done;
      let rewinds = As_of_snapshot.rewinds snap_s in
      check "log records were read, unless every walk met a damaged image" (not damaged)
        (List.exists (fun r -> r.As_of_snapshot.rc_log_reads > 0) rewinds);
      check "fpi use as configured" (fpi <> Access_ctx.Off && not damaged)
        (List.exists (fun r -> r.As_of_snapshot.rc_fpi) rewinds))
    Access_ctx.
      [
        ("off", Off, false);
        ("N=3", Every_mods 3, false);
        ("default", default_fpi, false);
        ("N=3, images damaged", Every_mods 3, true);
      ]

(* --- full page images under the default byte budget --- *)

let default_budget () =
  match Access_ctx.default_fpi with
  | Access_ctx.Budget_bytes b -> b
  | _ -> Alcotest.fail "the default policy is a byte budget"

(* A generated history over a few pages under the default policy:
   inserts, updates and deletes of 1-200 byte rows in ten-op
   transactions, a fifth of them rolled back, so CLRs count toward the
   budget too.  Returns the pages and the end of the log after every
   operation, ascending. *)
let budget_history ~seed ~pages ~txns =
  let env = mk_env () in
  let rng = Prng.create seed in
  let pids = Array.init pages Page_id.of_int in
  let txn = Txn_manager.begin_txn env.txns in
  Array.iter
    (fun pid -> Access_ctx.modify env.ctx txn pid (Log_record.Format { typ = Page.Heap; level = 0 }))
    pids;
  Txn_manager.commit env.txns txn ~wall_us:0.0;
  let ends = ref [] in
  for _ = 1 to txns do
    let txn = Txn_manager.begin_txn env.txns in
    for _ = 1 to 10 do
      let pid = pids.(Prng.int rng pages) in
      let n, free =
        Buffer_pool.with_page env.pool pid ~mode:Rw_buffer.Latch.Shared (fun p ->
            (Rw_storage.Slotted_page.count p, Rw_storage.Slotted_page.free_space p))
      in
      let row () = Prng.alpha_string rng (1 + Prng.int rng 200) in
      let get at =
        Buffer_pool.with_page env.pool pid ~mode:Rw_buffer.Latch.Shared (fun p ->
            Rw_storage.Slotted_page.get p ~at)
      in
      let choice = Prng.int rng 100 in
      let op =
        if n = 0 || (choice < 50 && free > 400) then
          Log_record.Insert_row { slot = Prng.int rng (n + 1); row = row () }
        else if choice < 75 && free > 400 then
          let at = Prng.int rng n in
          Log_record.Update_row { slot = at; before = get at; after = row () }
        else
          let at = Prng.int rng n in
          Log_record.Delete_row { slot = at; row = get at }
      in
      Access_ctx.modify env.ctx txn pid op;
      ends := Log_manager.end_lsn env.log :: !ends
    done;
    if Prng.int rng 5 = 0 then
      Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)
    else Txn_manager.commit env.txns txn ~wall_us:0.0
  done;
  (env, pids, List.rev !ends)

(* The records a rewind of [page] to [as_of] undoes: from the jump-start
   image's capture point (or the page's top) down to [as_of]. *)
let undone_records log page ~as_of ~used_fpi =
  let pid = Page.id page in
  let start =
    if used_fpi then
      match Log_manager.earliest_fpi_after log pid ~after:as_of with
      | Some f -> (Log_manager.peek_record log f).Log_record.p_prev_page_lsn
      | None -> Alcotest.fail "an image was used but none is indexed"
    else Page.lsn page
  in
  Log_manager.chain_segment log pid ~from:start ~down_to:as_of

(* Under the default budget, the serial rewind, the batch and the pointer
   walk leave byte-identical pages and counters at every sampled target,
   and no rewind undoes more than one budget of chain bytes plus one
   record. *)
let test_budget_rewinds_match_walk () =
  let budget = default_budget () in
  let env, pids, ends = budget_history ~seed:41 ~pages:3 ~txns:90 in
  let current = Array.map (fun pid -> Bytes.of_string (page_image env pid)) pids in
  let jumps = ref 0 in
  List.iteri
    (fun i as_of ->
      if i mod 7 = 0 then begin
        let rewind f = Array.map (fun p -> let p = Bytes.copy p in (p, f p)) current in
        let walk = rewind (fun page -> Page_undo.prepare_page_as_of_walk ~log:env.log ~page ~as_of) in
        let serial = rewind (fun page -> Page_undo.prepare_page_as_of ~log:env.log ~page ~as_of) in
        let batch = Array.map Bytes.copy current in
        let plans, _ = Page_undo.plan_batch ~log:env.log ~as_of batch in
        Array.iteri
          (fun k (wp, (wr : Page_undo.result)) ->
            let label = Printf.sprintf "page %d as of %d" k (Lsn.to_int as_of) in
            let sp, sr = serial.(k) in
            check (label ^ ": serial bytes = walk") true (Bytes.equal sp wp);
            check (label ^ ": serial counters = walk") true (sr = wr);
            (match Page_undo.apply_raw ~page:batch.(k) ~as_of plans.(k) with
            | Some br ->
                check (label ^ ": batch bytes = walk") true (Bytes.equal batch.(k) wp);
                check (label ^ ": batch counters = walk") true (br = wr)
            | None -> Alcotest.failf "%s: the batch rejected a healthy chain" label);
            if wr.used_fpi then incr jumps;
            let undone = undone_records env.log current.(k) ~as_of ~used_fpi:wr.used_fpi in
            check_int (label ^ ": undone records") wr.ops_undone (Array.length undone);
            let size l = Lsn.to_int (Log_manager.next_lsn_after env.log l) - Lsn.to_int l in
            let bytes = Array.fold_left (fun a l -> a + size l) 0 undone in
            let largest = Array.fold_left (fun a l -> max a (size l)) 0 undone in
            if bytes > budget + largest then
              Alcotest.failf "%s: undid %d B of chain, budget %d B + one record of %d B" label
                bytes budget largest)
          walk
      end)
    ends;
  check "rewinds jump-started from images" true (!jumps > 0)

(* A wrong image size inside an image's segment span (a structural check;
   the CRC is checked where bytes enter the log): the batch rejects the
   plan and restores the page, the serial path falls back to the walk
   (counted), and its outcome is exactly the walk's. *)
let test_corrupt_image_falls_back () =
  let env, pids, ends = budget_history ~seed:43 ~pages:1 ~txns:60 in
  let pid = pids.(0) in
  let original = Bytes.of_string (page_image env pid) in
  (* A copy of the log, whose blobs the test may damage. *)
  let log = Log_manager.create ~clock:env.clock ~media:Media.ram () in
  Log_manager.restore_entries log (Log_manager.dump_entries env.log);
  let as_of = List.nth ends (List.length ends / 2) in
  let image =
    match Log_manager.earliest_fpi_after log pid ~after:as_of with
    | Some f when Lsn.(f < Page.lsn original) -> f
    | _ -> Alcotest.fail "expected an image above the target"
  in
  let outcome f =
    let page = Bytes.copy original in
    match f page with
    | (r : Page_undo.result) -> Ok (r.ops_undone, r.used_fpi, Bytes.to_string page)
    | exception e -> Error (Printexc.to_string e)
  in
  let clean = outcome (fun page -> Page_undo.prepare_page_as_of ~log ~page ~as_of) in
  check "the clean rewind jump-starts" true
    (match clean with Ok (_, used_fpi, _) -> used_fpi | Error _ -> false);
  let g = Option.get (Log_manager.gather_batch log [| [| image |] |]).Log_manager.b_pages.(0) in
  (* The u32 image length at offset 34 of the record: 8192 becomes 8448. *)
  let at = g.Log_manager.g_pos.(0) + 35 in
  let blob = g.Log_manager.g_blob.(0) in
  Bytes.set blob at (Char.chr (Char.code (Bytes.get blob at) lxor 0x01));
  let page = Bytes.copy original in
  let plans, _ = Page_undo.plan_batch ~log ~as_of [| page |] in
  check "batch rejects the image" true (Page_undo.apply_raw ~page ~as_of plans.(0) = None);
  check "page restored" true (Bytes.equal page original);
  let walk = outcome (fun page -> Page_undo.prepare_page_as_of_walk ~log ~page ~as_of) in
  let before = Rw_obs.Metrics.counter_value Rw_obs.Probes.walk_fallbacks in
  let serial = outcome (fun page -> Page_undo.prepare_page_as_of ~log ~page ~as_of) in
  check_int "one walk fallback" 1
    (Rw_obs.Metrics.counter_value Rw_obs.Probes.walk_fallbacks - before);
  check "serial path = walk" true (serial = walk)

(* --- split lsn --- *)

let mk_db ?(media = Media.ram) ?fpi ?(name = "core") () =
  let clock = Sim_clock.create () in
  Database.create ~name ~clock ~media ?fpi ()

let test_split_lsn_boundaries () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  (* Commit three transactions at distinct times. *)
  let commit_times =
    List.map
      (fun i ->
        Sim_clock.advance_us clock 1_000_000.0;
        Database.with_txn db (fun txn ->
            Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]);
        Sim_clock.now_us clock)
      [ 1; 2; 3 ]
  in
  let log = Database.log db in
  let t2 = List.nth commit_times 1 in
  let r_mid = Split_lsn.find ~log ~wall_us:(t2 +. 1.0) in
  let r_all = Split_lsn.find ~log ~wall_us:(Sim_clock.now_us clock) in
  check "mid split before full split" true Lsn.(r_mid.Split_lsn.split_lsn < r_all.Split_lsn.split_lsn);
  (* Splitting exactly between commits 2 and 3 must include commit 2. *)
  check "commits counted" true (r_mid.Split_lsn.commits_seen >= 1)

let test_split_lsn_out_of_retention () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  for i = 1 to 50 do
    Sim_clock.advance_us clock 1_000_000.0;
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]);
    if i mod 10 = 0 then ignore (Database.checkpoint db)
  done;
  Database.set_retention db (Some 5_000_000.0);
  ignore (Database.enforce_retention db);
  check "log truncated" true (Lsn.to_int (Log_manager.first_lsn (Database.log db)) > 1);
  Alcotest.check_raises "too far back" (Split_lsn.Out_of_retention 0.5) (fun () ->
      ignore (Split_lsn.find ~log:(Database.log db) ~wall_us:0.5))

(* --- as-of snapshots through the engine --- *)

let value_at db key = Database.get db ~table:"t" ~key

let test_snapshot_sees_past_row_versions () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      Database.insert db txn ~table:"t" [ Row.Int 1L; Row.Text "original" ]);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 1L; Row.Text "modified" ];
      Database.insert db txn ~table:"t" [ Row.Int 2L; Row.Text "new-row" ]);
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_past in
  check "snapshot is read only" true (Database.is_read_only snap);
  check "old version visible" true
    (value_at snap 1L = Some [ Row.Int 1L; Row.Text "original" ]);
  check "later row invisible" true (value_at snap 2L = None);
  check "primary unchanged" true (value_at db 1L = Some [ Row.Int 1L; Row.Text "modified" ]);
  (* Snapshot DML is rejected. *)
  (try
     ignore (Database.begin_txn snap);
     Alcotest.fail "expected Read_only"
   with Database.Read_only _ -> ())

let test_snapshot_recovers_dropped_table () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to 30 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "r%d" i) ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let before_drop = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn -> Database.drop_table db txn "t");
  check "table gone on primary" true (Database.table db "t" = None);
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:before_drop in
  (* The catalog itself time-travels: the table exists in the snapshot. *)
  (match Database.table snap "t" with
  | Some tab -> check "schema recovered" true (List.length tab.Schema.columns = 2)
  | None -> Alcotest.fail "dropped table not visible in snapshot");
  check_int "all rows readable" 30 (Database.row_count snap ~table:"t");
  check "specific row" true (value_at snap 17L = Some [ Row.Int 17L; Row.Text "r17" ])

let test_snapshot_lazy_materialisation () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to 2000 do
        Database.insert db txn ~table:"t"
          [ Row.Int (Int64.of_int i); Row.Text (String.make 100 'x') ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 1L; Row.Text "changed" ]);
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_past in
  let handle = Option.get (Database.snapshot_handle snap) in
  check_int "nothing materialised up front" 0 (As_of_snapshot.pages_materialised handle);
  ignore (value_at snap 1L);
  let touched = As_of_snapshot.pages_materialised handle in
  check "only the access path materialised" true (touched > 0 && touched < 10);
  let total_pages = Disk.page_count (Database.disk db) in
  check "database is much larger" true (total_pages > 20)

let test_snapshot_rolls_back_inflight () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      Database.insert db txn ~table:"t" [ Row.Int 1L; Row.Text "committed" ]);
  (* A transaction whose modifications PRECEDE the split point (another
     transaction commits after them, anchoring the SplitLSN) but whose
     commit comes after: it is in flight at the split and must be undone
     logically by snapshot recovery. *)
  let inflight = Database.begin_txn db in
  Database.insert db inflight ~table:"t" [ Row.Int 2L; Row.Text "inflight" ];
  Database.with_txn db (fun txn ->
      Database.insert db txn ~table:"t" [ Row.Int 3L; Row.Text "anchor" ]);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_snap = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.commit db inflight;
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_snap in
  let handle = Option.get (Database.snapshot_handle snap) in
  check_int "one in-flight txn rolled back" 1 (As_of_snapshot.in_flight_txns handle);
  check "undo performed work" true (As_of_snapshot.undo_ops handle > 0);
  check "uncommitted-at-split row invisible" true (value_at snap 2L = None);
  check "committed row visible" true (value_at snap 1L <> None);
  check "anchor row visible" true (value_at snap 3L <> None);
  (* On the primary the late commit is of course visible. *)
  check "primary sees it" true (value_at db 2L <> None);
  (* A transaction whose Begin itself lies after the split is excluded
     purely physically — no logical undo involved. *)
  let late = Database.begin_txn db in
  Database.insert db late ~table:"t" [ Row.Int 4L; Row.Text "late" ];
  Database.commit db late;
  let snap2 = Database.create_as_of_snapshot db ~name:"snap2" ~wall_us:t_snap in
  let handle2 = Option.get (Database.snapshot_handle snap2) in
  (* Same split point: [inflight] is still the only loser there; the late
     transaction's records all lie beyond the split and are excluded purely
     physically. *)
  check_int "late txn is not a split-time loser" 1 (As_of_snapshot.in_flight_txns handle2);
  check "late row invisible anyway" true (value_at snap2 4L = None)

let test_snapshot_timings_accounted () =
  let db = mk_db ~media:Media.ssd () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to 100 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_past in
  let handle = Option.get (Database.snapshot_handle snap) in
  check "creation took simulated time" true (As_of_snapshot.creation_time_us handle > 0.0)

(* Rewinding across a page re-allocation: table A is dropped, its pages
   are re-used by table B (logging preformat records), and a snapshot from
   before the drop must reconstruct A's rows by walking through B's chain,
   the format record, and the preformat record back into A's incarnation —
   the paper's §4.2(1) extension end to end. *)
let value_at' db table key = Database.get db ~table ~key

let test_snapshot_across_reallocation () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"a" ~columns:cols ());
      for i = 1 to 200 do
        Database.insert db txn ~table:"a"
          [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "a-%d" i) ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let before_drop = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  let a_pages =
    let tab = Option.get (Database.table db "a") in
    Rw_access.Btree.pages (Database.ctx db) (Rw_access.Btree.of_root tab.Schema.root)
  in
  Database.with_txn db (fun txn -> Database.drop_table db txn "a");
  (* Table B re-uses A's freed pages and fills them with new content. *)
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"b" ~columns:cols ());
      for i = 1 to 200 do
        Database.insert db txn ~table:"b"
          [ Row.Int (Int64.of_int i); Row.Text (Printf.sprintf "b-%d" i) ]
      done);
  let b_pages =
    let tab = Option.get (Database.table db "b") in
    Rw_access.Btree.pages (Database.ctx db) (Rw_access.Btree.of_root tab.Schema.root)
  in
  let reused =
    List.exists (fun p -> List.exists (Rw_storage.Page_id.equal p) a_pages) b_pages
  in
  check "b reused at least one of a's pages" true reused;
  (* Preformat records were logged for the re-allocations. *)
  let preformats = ref 0 in
  let log = Database.log db in
  Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log) ~upto:(Log_manager.end_lsn log)
    (fun _ _ decode -> if Rw_wal.Log_record.kind_name (decode ()) = "preformat" then incr preformats);
  check "preformat records logged" true (!preformats > 0);
  (* The primary's catalog memo is warm, holding B and not A, before the
     view opens: the view's lookups must not see it. *)
  check "primary's catalog has B" true (Database.table db "b" <> None);
  check "primary's catalog lacks A" true (Database.table db "a" = None);
  (* And the snapshot reads table A right through them. *)
  let snap = Database.create_as_of_snapshot db ~name:"before_drop" ~wall_us:before_drop in
  check_int "all of A's rows recovered" 200 (Database.row_count snap ~table:"a");
  check "specific A row" true (value_at' snap "a" 123L = Some [ Row.Int 123L; Row.Text "a-123" ]);
  check "B does not exist yet in the snapshot" true (Database.table snap "b" = None);
  check "the snapshot lists only A" true
    (List.map (fun (t : Schema.table) -> t.Schema.name) (Database.tables snap) = [ "a" ]);
  (* The primary still sees only B. *)
  check "primary's catalog still lacks A" true (Database.table db "a" = None);
  check_int "primary has B" 200 (Database.row_count db ~table:"b")

(* Heap tables time-travel through the identical mechanism. *)
let test_snapshot_heap_table () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore
        (Database.create_table db txn ~table:"h" ~columns:cols ~kind:Schema.Heap_table ());
      for i = 1 to 50 do
        Database.insert db txn ~table:"h" [ Row.Int (Int64.of_int i); Row.Text "v1" ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"h" [ Row.Int 10L; Row.Text "v2" ];
      Database.delete db txn ~table:"h" ~key:20L);
  let snap = Database.create_as_of_snapshot db ~name:"hsnap" ~wall_us:t_past in
  check "heap old version" true (Database.get snap ~table:"h" ~key:10L = Some [ Row.Int 10L; Row.Text "v1" ]);
  check "heap deleted row visible in past" true (Database.get snap ~table:"h" ~key:20L <> None);
  check_int "heap full count in past" 50 (Database.row_count snap ~table:"h")

(* Several snapshots of different moments coexist and stay independent. *)
let test_multiple_snapshots_coexist () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  let moments = ref [] in
  for i = 1 to 5 do
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]);
    Sim_clock.advance_us clock 500_000.0;
    moments := (i, Sim_clock.now_us clock) :: !moments
  done;
  let snaps =
    List.map
      (fun (i, wall_us) ->
        (i, Database.create_as_of_snapshot db ~name:(Printf.sprintf "m%d" i) ~wall_us))
      (List.rev !moments)
  in
  List.iter
    (fun (i, snap) -> check_int (Printf.sprintf "snapshot %d row count" i) i
        (Database.row_count snap ~table:"t"))
    snaps

(* A snapshot reads primary pages through the disk's checked read: a page
   rotted on disk raises instead of being rewound into a wrong past answer,
   and a transient device error is retried. *)
let primary_read_fixture () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to 3 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "original" ]
      done);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_past = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1_000_000.0;
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 1L; Row.Text "modified" ]);
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_past in
  let root = (Option.get (Database.table db "t")).Schema.root in
  (db, snap, root)

let test_snapshot_detects_corrupt_primary () =
  let db, snap, root = primary_read_fixture () in
  let disk = Database.disk db in
  let st = Disk.stats disk in
  Disk.corrupt_stored disk root;
  let before = st.Rw_storage.Io_stats.corruptions_detected in
  Alcotest.check_raises "rotted primary page" (Disk.Corrupt_page root) (fun () ->
      ignore (value_at snap 1L));
  check_int "detection counted" (before + 1) st.Rw_storage.Io_stats.corruptions_detected

let test_snapshot_retries_transient_read () =
  let db, snap, _ = primary_read_fixture () in
  let disk = Database.disk db in
  let st = Disk.stats disk in
  let retries = st.Rw_storage.Io_stats.io_retries in
  Disk.set_fault_plan disk
    (Some (Rw_storage.Fault_plan.create ~transient_error_rate:0.5 ~seed:5 ()));
  let rows = List.map (fun k -> value_at snap (Int64.of_int k)) [ 1; 2; 3 ] in
  Disk.set_fault_plan disk None;
  check "fault-free rows" true
    (rows = List.map (fun k -> Some [ Row.Int (Int64.of_int k); Row.Text "original" ]) [ 1; 2; 3 ]);
  check "reads were retried" true (st.Rw_storage.Io_stats.io_retries > retries)

(* --- copy-on-write snapshot baseline (paper §2.2 / §7.1) --- *)

module Cow_snapshot = Rw_core.Cow_snapshot

let test_cow_snapshot_reads_past () =
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      Database.insert db txn ~table:"t" [ Row.Int 1L; Row.Text "v1" ]);
  let snap = Database.create_cow_snapshot db ~name:"cow" in
  let handle = Option.get (Database.cow_handle snap) in
  check_int "nothing copied yet" 0 (Cow_snapshot.pages_copied handle);
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 1L; Row.Text "v2" ];
      Database.insert db txn ~table:"t" [ Row.Int 2L; Row.Text "post" ]);
  (* Pre-images were pushed proactively, without any snapshot read. *)
  check "copies happened on write" true (Cow_snapshot.pages_copied handle > 0);
  check "cow sees creation-time version" true
    (Database.get snap ~table:"t" ~key:1L = Some [ Row.Int 1L; Row.Text "v1" ]);
  check "cow does not see later insert" true (Database.get snap ~table:"t" ~key:2L = None);
  check "primary sees the update" true
    (Database.get db ~table:"t" ~key:1L = Some [ Row.Int 1L; Row.Text "v2" ]);
  (* Dropping stops the interception. *)
  let before = Cow_snapshot.pages_copied handle in
  Cow_snapshot.drop handle;
  Database.with_txn db (fun txn ->
      Database.update db txn ~table:"t" [ Row.Int 1L; Row.Text "v3" ]);
  check_int "no copies after drop" before (Cow_snapshot.pages_copied handle)

let test_cow_vs_asof_overhead () =
  (* The paper's §7.1 argument, in miniature: a standing COW snapshot pays
     a copy for every first-touch of a page even if nobody ever queries
     it; the log-based scheme pays nothing until a query arrives. *)
  let db = mk_db () in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for i = 1 to 500 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (String.make 80 'x') ]
      done);
  let snap = Database.create_cow_snapshot db ~name:"standing" in
  let handle = Option.get (Database.cow_handle snap) in
  Database.with_txn db (fun txn ->
      for i = 1 to 500 do
        Database.update db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text (String.make 80 'y') ]
      done);
  check "COW copied many pages without any reader" true (Cow_snapshot.pages_copied handle > 5);
  check "COW space overhead is real" true (Cow_snapshot.copy_bytes handle > 5 * 8192)

(* --- retention --- *)

let test_retention_enforcement () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  for i = 1 to 100 do
    Sim_clock.advance_us clock 500_000.0;
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]);
    if i mod 20 = 0 then ignore (Database.checkpoint db)
  done;
  let log = Database.log db in
  let before = Log_manager.retained_bytes log in
  Database.set_retention db (Some 10_000_000.0);
  (match Database.enforce_retention db with
  | Some _ -> ()
  | None -> Alcotest.fail "expected truncation");
  check "log shrank" true (Log_manager.retained_bytes log < before);
  (* Recent history still works. *)
  let t_recent = Sim_clock.now_us clock -. 2_000_000.0 in
  let snap = Database.create_as_of_snapshot db ~name:"snap" ~wall_us:t_recent in
  check "recent as-of query fine" true (Database.row_count snap ~table:"t" > 0)

let test_retention_rides_on_checkpoints () =
  let db = mk_db () in
  let clock = Database.clock db in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  Database.set_retention db (Some 5_000_000.0);
  (* No manual enforcement: periodic checkpoints alone must reclaim log. *)
  for i = 1 to 60 do
    Sim_clock.advance_us clock 1_000_000.0;
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Text "x" ]);
    if i mod 5 = 0 then ignore (Database.checkpoint db)
  done;
  check "log reclaimed automatically" true
    (Lsn.to_int (Log_manager.first_lsn (Database.log db)) > 1)

let test_no_retention_keeps_everything () =
  let db = mk_db () in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  check "no cutoff without interval" true (Database.enforce_retention db = None);
  check_int "log intact" 1 (Lsn.to_int (Log_manager.first_lsn (Database.log db)))

(* Retention / index interplay on a segmented log: after [Retention.enforce]
   drops whole sealed segments, the merged index views must surface nothing
   below the new boundary, and rewinds to points inside the window must be
   byte-identical to the same rewinds before truncation. *)
let test_retention_segmented_indexes () =
  let env = mk_env ~fpi:(Access_ctx.Every_mods 10) ~segment_bytes:512 () in
  let pid = Page_id.of_int 0 in
  let rng = Prng.create 99 in
  let txn = Txn_manager.begin_txn env.txns in
  Access_ctx.modify env.ctx txn pid (Log_record.Format { typ = Page.Heap; level = 0 });
  let nrows = ref 0 in
  let as_ofs = ref [] in
  for i = 1 to 120 do
    let row = Prng.alpha_string rng (1 + Prng.int rng 40) in
    Access_ctx.modify env.ctx txn pid
      (Log_record.Insert_row { slot = Prng.int rng (!nrows + 1); row });
    incr nrows;
    as_ofs := Page.lsn (Bytes.of_string (page_image env pid)) :: !as_ofs;
    if i mod 15 = 0 then begin
      Sim_clock.advance_us env.clock 1_000_000.0;
      let l =
        Log_manager.append env.log
          (Log_record.make
             (Log_record.Checkpoint
                { wall_us = Sim_clock.now_us env.clock; active_txns = []; dirty_pages = [] }))
      in
      Log_manager.set_last_checkpoint env.log l
    end
  done;
  Txn_manager.commit env.txns txn ~wall_us:(Sim_clock.now_us env.clock);
  check "history spans several segments" true (Log_manager.segment_count env.log > 4);
  let current = page_image env pid in
  let ret = Retention.create () in
  Retention.set_interval ret (Some 3_000_000.0);
  let now = Sim_clock.now_us env.clock in
  let cut =
    match Retention.cutoff ret ~log:env.log ~now_us:now with
    | Some l -> l
    | None -> Alcotest.fail "expected a retention cutoff"
  in
  let inside = List.filter (fun l -> Lsn.(l >= cut)) !as_ofs in
  check "several rewind points stay inside the window" true (List.length inside > 10);
  let rewind as_of =
    let page = Bytes.of_string current in
    ignore (Page_undo.prepare_page_as_of ~log:env.log ~page ~as_of);
    Bytes.to_string page
  in
  let before_imgs = List.map rewind inside in
  (match Retention.enforce ret ~log:env.log ~now_us:now with
  | Some l -> check "enforce used the cutoff" true (Lsn.equal l cut)
  | None -> Alcotest.fail "expected truncation");
  check "first_lsn is the boundary" true (Lsn.equal (Log_manager.first_lsn env.log) cut);
  let top = Log_manager.end_lsn env.log in
  Array.iter
    (fun l -> check "chain_segment respects boundary" true Lsn.(l >= cut))
    (Log_manager.chain_segment env.log pid ~from:top ~down_to:Lsn.nil);
  List.iter
    (fun after ->
      match Log_manager.earliest_fpi_after env.log pid ~after with
      | Some l -> check "earliest_fpi_after respects boundary" true Lsn.(l >= cut)
      | None -> ())
    (Lsn.nil :: inside);
  Log_manager.iter_checkpoints_rev env.log (fun l _ ->
      check "checkpoint walk respects boundary" true Lsn.(l >= cut);
      true);
  List.iter2
    (fun as_of before_img ->
      if not (String.equal (rewind as_of) before_img) then
        Alcotest.failf "rewind to lsn %d changed after truncation" (Lsn.to_int as_of))
    inside before_imgs

let () =
  Alcotest.run "core"
    [
      ( "page_undo",
        [
          Alcotest.test_case "golden history rewind" `Quick test_prepare_golden;
          Alcotest.test_case "golden history with FPIs" `Quick test_prepare_golden_with_fpi;
          Alcotest.test_case "noop when already old" `Quick test_prepare_noop_when_old;
          Alcotest.test_case "FPIs reduce log reads" `Quick test_fpi_reduces_reads;
          Alcotest.test_case "chain corruption detected" `Quick test_chain_broken_detection;
          Alcotest.test_case "batched rewind matches walk" `Quick test_batched_matches_walk;
          Alcotest.test_case "broken page in a healthy batch" `Quick test_broken_page_in_batch;
          Alcotest.test_case "batch of one matches serial" `Quick test_batch_of_one_matches_serial;
          Alcotest.test_case "default budget: rewinds match the walk" `Quick
            test_budget_rewinds_match_walk;
          Alcotest.test_case "corrupt image falls back to the walk" `Quick
            test_corrupt_image_falls_back;
          Alcotest.test_case "failed apply restores the page" `Quick
            test_failed_apply_restores_page;
        ] );
      ( "split_lsn",
        [
          Alcotest.test_case "boundaries" `Quick test_split_lsn_boundaries;
          Alcotest.test_case "out of retention" `Quick test_split_lsn_out_of_retention;
        ] );
      ( "as_of_snapshot",
        [
          Alcotest.test_case "past row versions" `Quick test_snapshot_sees_past_row_versions;
          Alcotest.test_case "dropped table recovery" `Quick test_snapshot_recovers_dropped_table;
          Alcotest.test_case "lazy materialisation" `Quick test_snapshot_lazy_materialisation;
          Alcotest.test_case "in-flight rollback" `Quick test_snapshot_rolls_back_inflight;
          Alcotest.test_case "timings" `Quick test_snapshot_timings_accounted;
          Alcotest.test_case "across re-allocation (preformat)" `Quick
            test_snapshot_across_reallocation;
          Alcotest.test_case "heap tables" `Quick test_snapshot_heap_table;
          Alcotest.test_case "multiple snapshots" `Quick test_multiple_snapshots_coexist;
          Alcotest.test_case "rotted primary page raises" `Quick
            test_snapshot_detects_corrupt_primary;
          Alcotest.test_case "transient primary read retried" `Quick
            test_snapshot_retries_transient_read;
        ] );
      ( "cow_baseline",
        [
          Alcotest.test_case "reads past via copy-on-write" `Quick test_cow_snapshot_reads_past;
          Alcotest.test_case "proactive overhead" `Quick test_cow_vs_asof_overhead;
        ] );
      ( "retention",
        [
          Alcotest.test_case "enforcement" `Quick test_retention_enforcement;
          Alcotest.test_case "rides on checkpoints" `Quick test_retention_rides_on_checkpoints;
          Alcotest.test_case "no interval" `Quick test_no_retention_keeps_everything;
          Alcotest.test_case "segmented index boundary" `Quick test_retention_segmented_indexes;
        ] );
    ]
