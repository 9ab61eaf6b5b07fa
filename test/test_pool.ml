(* Fan-out determinism for the shared domain pool (ISSUE 10).

   The pool's contract (lib/core/page_batch.mli) is that fan-out changes
   modeled elapsed time only: results, counters and cache contents must be
   byte- and count-identical under any fan-out, including 1, because all
   shared effects happen on the coordinator in a fixed order.  These tests
   hold the staged consumers to that contract:

   - batched snapshot rewinds at fan-out 1 / 2 / 4 / default-clamp produce
     byte-identical canonical pages, identical rewind tallies, identical
     side-file hits and identical prepared-page cache contents;
   - the same holds across a mid-run retention truncation (invalidation
     epoch bump between two batches), at two workload seeds;
   - probe counter totals (undo, snapshot, buf, wal families) and both
     devices' Io_stats are identical at fan-out 1 vs 4 — pool.tasks and
     pool.wakes are deliberately excluded, they count participant slots
     and wakes and are fan-out-dependent by design;
   - the batched scrub sweep detects/repairs identically at any fan-out,
     and its modeled time at fan-out 2 and 4 is at most fan-out 1's;
   - [Page_batch] itself, against a reference: each item applied once,
     published once in ascending order with its result, batches covering
     the items in order, and the clock credit equal to the summed cost
     minus the largest round-robin partition;
   - isolated-snapshot audits over a long TPC-C history, warmed by the
     batch pipeline at fan-out 2 and 4, match fan-out 1 page for page;
   - the pool itself runs every participant exactly once, reraises worker
     exceptions, and clamps fan-out as documented. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Io_stats = Rw_storage.Io_stats
module Log_manager = Rw_wal.Log_manager
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module As_of_snapshot = Rw_core.As_of_snapshot
module Prepared_cache = Rw_core.Prepared_cache
module Domain_pool = Rw_pool.Domain_pool
module Page_batch = Rw_pool.Page_batch
module Session_manager = Rw_session.Session_manager
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Tpcc = Rw_workload.Tpcc

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the pool itself --- *)

let test_run_covers_every_participant () =
  let n = 4 in
  let hits = Array.make n 0 in
  Domain_pool.run ~participants:n (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri (fun i h -> check_int (Printf.sprintf "participant %d ran once" i) 1 h) hits;
  (* participants <= 1 runs inline on the caller, no workers involved. *)
  let solo = ref 0 in
  Domain_pool.run ~participants:1 (fun i ->
      check_int "solo index" 0 i;
      incr solo);
  check_int "solo ran once" 1 !solo

let test_worker_exception_reraised () =
  Alcotest.check_raises "worker failure surfaces on the caller"
    (Failure "boom") (fun () ->
      Domain_pool.run ~participants:3 (fun i -> if i = 2 then failwith "boom"));
  (* A failure on the calling domain surfaces only after the barrier too:
     no participant of a failed run may still be going when the next run
     starts. *)
  let go = Atomic.make false and finished = Atomic.make false in
  Alcotest.check_raises "caller failure surfaces on the caller" (Failure "caller") (fun () ->
      Domain_pool.run ~participants:2 (fun i ->
          if i = 0 then begin
            Atomic.set go true;
            failwith "caller"
          end
          else begin
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Atomic.set finished true
          end));
  check "worker finished before the caller's failure surfaced" true (Atomic.get finished);
  (* The pool survives a failed run and keeps executing. *)
  let ok = ref 0 in
  Domain_pool.run ~participants:3 (fun _ -> incr ok);
  check "pool usable after failure" true (!ok >= 1)

let test_fanout_clamp () =
  Fun.protect
    ~finally:(fun () -> Domain_pool.set_fanout None)
    (fun () ->
      Domain_pool.set_fanout (Some 3);
      check_int "override cap" 3 (Domain_pool.fanout_cap ());
      check_int "work below cap" 2 (Domain_pool.effective_fanout 2);
      check_int "work above cap" 3 (Domain_pool.effective_fanout 10);
      check_int "no work still 1" 1 (Domain_pool.effective_fanout 0);
      Domain_pool.set_fanout (Some 0);
      check_int "override floored at 1" 1 (Domain_pool.fanout_cap ());
      Domain_pool.set_fanout None;
      check_int "default clamp" (Domain.recommended_domain_count ()) (Domain_pool.fanout_cap ()));
  (* Workers park between runs while the cap is stable, but shrinking
     the cap retires them: a parked domain drags every minor GC on the
     coordinator into a multi-domain rendezvous, so restoring the
     override must leave no spare domains behind. *)
  Domain_pool.set_fanout (Some 3);
  Domain_pool.run ~participants:3 (fun _ -> ());
  check "workers parked while cap is stable" true (Domain_pool.spawned_workers () >= 2);
  Domain_pool.set_fanout None;
  if Domain.recommended_domain_count () = 1 then
    check_int "cap shrink retires parked workers" 0 (Domain_pool.spawned_workers ());
  (* The pool respawns and keeps working after a teardown. *)
  let hits = ref 0 in
  Domain_pool.run ~participants:2 (fun _ -> incr hits);
  check "pool usable after teardown" true (!hits >= 1);
  Domain_pool.set_fanout None

(* --- the page batch pipeline itself --- *)

(* What one batch must credit: the costs summed, minus the largest of
   [fanout] round-robin partitions (0 at fan-out 1). *)
let reference_credit ~fanout costs =
  let part j = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i mod fanout = j) costs) in
  List.fold_left ( + ) 0 costs - List.fold_left max 0 (List.init fanout part)

(* One [Page_batch.run] over items [0 .. n-1] with integer [costs] (sums
   stay exact in floats).  The gather advances a fresh clock by each
   item's cost and reports the costs unless [silent]; the apply of item
   [raise_at] raises.  Returns the published (item, result) pairs in
   order, the batches gathered, how often each item was applied, the
   clock's net advance, and whether the run raised. *)
let batch_run ~chunk ?(raise_at = -1) ~silent costs =
  let costs = Array.of_list costs in
  let n = Array.length costs in
  let clock = Sim_clock.create () in
  let applied = Array.init n (fun _ -> Atomic.make 0) in
  let published = ref [] and batches = ref [] in
  let raised =
    match
      Page_batch.run ~clock ~span:"test.batch" ~chunk
        ~gather:(fun batch ->
          batches := Array.to_list batch :: !batches;
          let c = Array.map (fun i -> float_of_int costs.(i)) batch in
          Array.iter (Sim_clock.advance_us clock) c;
          (batch, if silent then [||] else c))
        ~apply:(fun batch k ->
          let i = batch.(k) in
          Atomic.incr applied.(i);
          if i = raise_at then failwith "apply";
          (31 * i) + costs.(i))
        ~publish:(fun batch k r -> published := (batch.(k), r) :: !published)
        (Array.init n Fun.id)
    with
    | _ -> false
    | exception Failure _ -> true
  in
  ( List.rev !published,
    List.rev !batches,
    Array.map Atomic.get applied,
    Sim_clock.now_us clock,
    raised )

let page_batch_test =
  QCheck.Test.make ~name:"page batch agrees with a reference" ~count:60
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_bound 1000)) small_nat)
    (fun (costs, r) ->
      let n = List.length costs in
      let total = float_of_int (List.fold_left ( + ) 0 costs) in
      (* The same at every fan-out and chunking, so the results at fan-out
         2 and 4 equal those at fan-out 1. *)
      let expect = List.mapi (fun i c -> (i, (31 * i) + c)) costs in
      let at_fanout fanout =
        List.iter
          (fun chunk ->
            let published, batches, applied, now, raised = batch_run ~chunk ~silent:false costs in
            let label = Printf.sprintf "fan-out %d, chunk %d" fanout chunk in
            let fail what = QCheck.Test.fail_reportf "%s: %s" label what in
            if raised then fail "raised";
            if Array.exists (fun a -> a <> 1) applied then fail "an item not applied once";
            if published <> expect then fail "publish order or results";
            if List.concat batches <> List.init n Fun.id then fail "batches do not cover the items";
            if List.exists (fun b -> List.length b > max 1 chunk) batches then
              fail "batch over chunk";
            let credit =
              List.fold_left
                (fun acc b ->
                  let fanout = max 1 (min fanout (List.length b)) in
                  acc + reference_credit ~fanout (List.map (List.nth costs) b))
                0 batches
            in
            if now <> total -. float_of_int credit then fail "credit differs from the reference";
            if fanout = 1 && now <> total then fail "credit at fan-out 1";
            let _, _, _, now_silent, _ = batch_run ~chunk ~silent:true costs in
            if now_silent <> total then fail "credit without reported costs")
          [ 1; 3; n ];
        if n > 0 then begin
          let published, _, _, _, raised =
            batch_run ~chunk:n ~raise_at:(r mod n) ~silent:false costs
          in
          let fail what = QCheck.Test.fail_reportf "fan-out %d: %s" fanout what in
          if not raised then fail "apply failure lost";
          if published <> [] then fail "published after a failure"
        end
      in
      Fun.protect
        ~finally:(fun () -> Domain_pool.set_fanout None)
        (fun () ->
          List.iter
            (fun fanout ->
              Domain_pool.set_fanout (Some fanout);
              at_fanout fanout)
            [ 1; 2; 4 ]);
      true)

(* --- fan-out determinism on the batched snapshot rewind --- *)

(* Probe counters that every fan-out must agree on.  pool.tasks and
   pool.wakes are excluded by construction: they count participant slots
   and worker wakes, which is exactly what fan-out changes. *)
let tracked =
  [
    ("undo.page_rewinds", Probes.page_rewinds);
    ("undo.ops_undone", Probes.ops_undone);
    ("undo.walk_fallbacks", Probes.walk_fallbacks);
    ("snapshot.pages_materialized", Probes.snapshot_pages_materialized);
    ("snapshot.parallel_pages", Probes.snapshot_parallel_pages);
    ("snapshot.shared_hits", Probes.snapshot_shared_hits);
    ("snapshot.shared_misses", Probes.snapshot_shared_misses);
    ("snapshot.side_hits", Probes.snapshot_side_hits);
    ("buf.fetch_hits", Probes.fetch_hits);
    ("buf.fetch_misses", Probes.fetch_misses);
    ("buf.evictions", Probes.evictions);
    ("buf.writebacks", Probes.writebacks);
    ("wal.appends", Probes.log_appends);
  ]

let tally () = List.map (fun (n, c) -> (n, Metrics.counter_value c)) tracked

let probe_delta before after =
  List.map2 (fun (n, b) (_, a) -> (n, a - b)) before after

let io_fingerprint (s : Io_stats.t) =
  ( s.Io_stats.random_reads,
    s.Io_stats.random_writes,
    s.Io_stats.seq_read_bytes,
    s.Io_stats.seq_write_bytes,
    s.Io_stats.log_block_hits,
    s.Io_stats.log_block_misses,
    s.Io_stats.log_record_hits,
    s.Io_stats.log_record_misses,
    s.Io_stats.corruptions_detected,
    s.Io_stats.pages_repaired,
    s.Io_stats.io_retries )

let build_tpcc ?(seed = 42) ~media ~txns () =
  let eng = Engine.create ~media () in
  let db =
    Engine.create_database eng ~pool_capacity:1024 ~log_segment_bytes:16384 "tpcc"
  in
  let cfg = { Tpcc.small_config with Tpcc.seed } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let t0 = Engine.now_us eng in
  ignore (Tpcc.run_mix drv ~txns);
  let t1 = Engine.now_us eng in
  (db, t0, t1)

let written_pages db =
  let disk = Database.disk db in
  let acc = ref [] in
  for i = Disk.page_count disk - 1 downto 0 do
    let pid = Page_id.of_int i in
    if Disk.has_page disk pid then acc := pid :: !acc
  done;
  !acc

type outcome = {
  o_pages : (int * string) list;  (* canonical image per materialised page *)
  o_rewound : int;  (* materialize_batch return, both halves *)
  o_rewind_count : int;
  o_side_hits : int;
  o_cache : (Page_id.t * Lsn.t * string) list;
  o_probes : (string * int) list;
  o_disk : int * int * int * int * int * int * int * int * int * int * int;
  o_log : int * int * int * int * int * int * int * int * int * int * int;
}

(* One full deterministic run at a given fan-out: identical workload,
   snapshot, batched rewind of every written page in two halves — with an
   optional retention truncation (epoch bump) between the halves — then a
   complete observable fingerprint. *)
let run_once ~seed ~fanout ~truncate () =
  Fun.protect
    ~finally:(fun () -> Domain_pool.set_fanout None)
    (fun () ->
      Domain_pool.set_fanout fanout;
      let db, t0, t1 = build_tpcc ~seed ~media:Media.ram ~txns:80 () in
      let span = t1 -. t0 in
      let before = tally () in
      let view =
        Database.create_as_of_snapshot db ~name:"fan" ~wall_us:(t1 -. (0.2 *. span))
      in
      let snap = Option.get (Database.snapshot_handle view) in
      let pages = written_pages db in
      let half = List.length pages / 2 in
      let first = List.filteri (fun i _ -> i < half) pages in
      let second = List.filteri (fun i _ -> i >= half) pages in
      let r1 = As_of_snapshot.materialize_batch snap first in
      if truncate then begin
        (* Mid-run history loss: keeps the snapshot's split retained but
           bumps the invalidation epoch between the two batches. *)
        let epoch0 = Log_manager.invalidation_epoch (Database.log db) in
        Database.set_retention db (Some (0.6 *. span));
        ignore (Database.enforce_retention db);
        check "truncation bumped the epoch" true
          (Log_manager.invalidation_epoch (Database.log db) > epoch0)
      end;
      let r2 = As_of_snapshot.materialize_batch snap second in
      let o =
        {
          o_pages = [];
          o_rewound = r1 + r2;
          o_rewind_count = As_of_snapshot.rewind_count snap;
          o_side_hits = As_of_snapshot.side_file_hits snap;
          o_cache = Prepared_cache.contents (Database.prepared_cache db);
          o_probes = probe_delta before (tally ());
          o_disk = io_fingerprint (Disk.stats (Database.disk db));
          o_log = io_fingerprint (Log_manager.stats (Database.log db));
        }
      in
      (* Every page, read after the counters are taken. *)
      {
        o with
        o_pages =
          List.map (fun pid -> (Page_id.to_int pid, As_of_snapshot.page_string snap pid)) pages;
      })

let check_outcomes_equal ~label base other =
  List.iter2
    (fun (pid, a) (pid', b) ->
      check_int (Printf.sprintf "%s: same page set" label) pid pid';
      check (Printf.sprintf "%s: page %d byte-identical" label pid) true (String.equal a b))
    base.o_pages other.o_pages;
  check_int (label ^ ": pages rewound") base.o_rewound other.o_rewound;
  check_int (label ^ ": rewind_count") base.o_rewind_count other.o_rewind_count;
  check_int (label ^ ": side-file hits") base.o_side_hits other.o_side_hits;
  check (label ^ ": prepared-cache contents") true (base.o_cache = other.o_cache);
  List.iter2
    (fun (n, a) (_, b) -> check_int (Printf.sprintf "%s: probe %s" label n) a b)
    base.o_probes other.o_probes;
  check (label ^ ": data-device Io_stats") true (base.o_disk = other.o_disk);
  check (label ^ ": log-device Io_stats") true (base.o_log = other.o_log)

let fanouts = [ ("fanout-1", Some 1); ("fanout-2", Some 2); ("fanout-4", Some 4); ("clamp", None) ]

let test_fanout_determinism () =
  List.iter
    (fun seed ->
      let base = run_once ~seed ~fanout:(Some 1) ~truncate:false () in
      check "the batch actually rewound pages" true (base.o_rewound > 0);
      check "pages went through the parallel pipeline" true
        (List.assoc "snapshot.parallel_pages" base.o_probes > 0);
      (* A gather bug that sent pages to the walk would stay correct but
         slow; on a healthy history no page may fall back. *)
      let no_fallbacks label o =
        check_int (label ^ ": no walk fallbacks") 0 (List.assoc "undo.walk_fallbacks" o.o_probes)
      in
      no_fallbacks (Printf.sprintf "seed %d fanout-1" seed) base;
      List.iter
        (fun (name, fanout) ->
          let other = run_once ~seed ~fanout ~truncate:false () in
          let label = Printf.sprintf "seed %d %s" seed name in
          no_fallbacks label other;
          check_outcomes_equal ~label base other)
        (List.tl fanouts))
    [ 42; 1337 ]

let test_fanout_determinism_across_truncation () =
  List.iter
    (fun seed ->
      let base = run_once ~seed ~fanout:(Some 1) ~truncate:true () in
      List.iter
        (fun (name, fanout) ->
          let other = run_once ~seed ~fanout ~truncate:true () in
          check_outcomes_equal
            ~label:(Printf.sprintf "truncation seed %d %s" seed name)
            base other)
        (List.tl fanouts))
    [ 42; 1337 ]

(* --- fan-out stress: isolated-snapshot audits over a long history --- *)

(* The shape under which pool workers once raced on a shared compaction
   buffer and handed half-undone pages to the serial fallback: a
   4000-transaction TPC-C history whose log is ten times the 64 x 16 KiB
   log block cache, isolated snapshots at nine depths, each warmed by the
   batch pipeline and then scanned.  Every fan-out must reproduce the
   fan-out-1 pages and rows exactly. *)
let test_audit_stress () =
  let eng = Engine.create ~media:Media.ssd () in
  let db =
    Engine.create_database eng ~pool_capacity:1024 ~checkpoint_interval_us:2_000_000.0
      ~log_cache_blocks:64 ~log_block_bytes:16384 "audit"
  in
  let cfg = { Tpcc.default_config with Tpcc.seed = 7 } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  let instants =
    List.init 9 (fun _ ->
        ignore (Tpcc.run_mix drv ~txns:400);
        Database.now_us db)
  in
  ignore (Tpcc.run_mix drv ~txns:400);
  let audit fanout i wall_us =
    Fun.protect
      ~finally:(fun () -> Domain_pool.set_fanout None)
      (fun () ->
        Domain_pool.set_fanout fanout;
        let view =
          Database.create_as_of_snapshot ~shared:false db ~name:(Printf.sprintf "audit-%d" i)
            ~wall_us
        in
        let snap = Option.get (Database.snapshot_handle view) in
        Fun.protect
          ~finally:(fun () -> As_of_snapshot.drop snap)
          (fun () ->
            let warmed = Rw_engine.Time_travel.warm view in
            let rows = ref [] in
            Database.scan view ~table:"stock" ~f:(fun r -> rows := r :: !rows);
            let pages =
              List.map
                (fun pid -> (Page_id.to_int pid, As_of_snapshot.page_string snap pid))
                (written_pages db)
            in
            (warmed, pages, !rows)))
  in
  List.iteri
    (fun i wall_us ->
      let warmed, pages, rows = audit (Some 1) i wall_us in
      check (Printf.sprintf "audit %d warmed pages" i) true (warmed > 0);
      List.iter
        (fun fanout ->
          let label = Printf.sprintf "audit %d fan-out %d" i fanout in
          let warmed', pages', rows' = audit (Some fanout) i wall_us in
          check_int (label ^ ": pages warmed") warmed warmed';
          check (label ^ ": canonical pages") true (pages = pages');
          check (label ^ ": stock rows") true (rows = rows'))
        [ 2; 4 ])
    instants

(* --- fan-out determinism on the batched scrub sweep --- *)

let test_scrub_fanout_determinism () =
  let scrub_once fanout =
    Fun.protect
      ~finally:(fun () -> Domain_pool.set_fanout None)
      (fun () ->
        Domain_pool.set_fanout fanout;
        (* Priced reads, so that the sweep has an overlap to credit. *)
        let db, _, _ = build_tpcc ~seed:7 ~media:Media.ssd ~txns:40 () in
        ignore (Database.checkpoint db);
        Rw_buffer.Buffer_pool.drop_all (Database.pool db);
        let before = tally () in
        let t0 = Database.now_us db in
        let repaired = Database.scrub db in
        let elapsed = Database.now_us db -. t0 in
        ( (repaired, probe_delta before (tally ()), io_fingerprint (Disk.stats (Database.disk db))),
          elapsed ))
  in
  let (r1, p1, d1), e1 = scrub_once (Some 1) in
  List.iter
    (fun (name, fanout) ->
      let (r, p, d), e = scrub_once fanout in
      check_int (name ^ " scrub: same repairs") r1 r;
      List.iter2
        (fun (n, a) (_, b) -> check_int (Printf.sprintf "%s scrub: probe %s" name n) a b)
        p1 p;
      check (name ^ " scrub: identical Io_stats") true (d1 = d);
      (* The overlap credit only ever shortens the sweep. *)
      check (name ^ " scrub: modeled time no more than at fan-out 1") true (e <= e1))
    (List.tl fanouts)

(* --- prewarmed reader sessions ride the pipeline transparently --- *)

let test_prewarm_reader_equivalence () =
  let db, t0, t1 = build_tpcc ~seed:42 ~media:Media.ram ~txns:60 () in
  let target = t1 -. (0.3 *. (t1 -. t0)) in
  let sm = Session_manager.create db in
  let warm = Session_manager.open_reader sm ~name:"warm" ~wall_us:target ~step:(fun _ -> ()) in
  ignore (Rw_engine.Time_travel.warm (Session_manager.view warm) : int);
  let cold =
    Session_manager.open_reader sm ~name:"cold" ~wall_us:target ~step:(fun _ -> ())
  in
  let warm_snap = Option.get (Database.snapshot_handle (Session_manager.view warm)) in
  let cold_snap = Option.get (Database.snapshot_handle (Session_manager.view cold)) in
  check "prewarm materialised pages up front" true
    (As_of_snapshot.pages_materialised warm_snap > 0);
  (* Every page of the prewarmed view is byte-identical to the on-demand
     rewind. *)
  List.iter
    (fun pid ->
      check
        (Printf.sprintf "page %d identical warm vs cold" (Page_id.to_int pid))
        true
        (String.equal
           (As_of_snapshot.page_string warm_snap pid)
           (As_of_snapshot.page_string cold_snap pid)))
    (written_pages db)

let () =
  Alcotest.run "pool"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "run covers every participant" `Quick
            test_run_covers_every_participant;
          Alcotest.test_case "worker exception reraised" `Quick test_worker_exception_reraised;
          Alcotest.test_case "fan-out clamp" `Quick test_fanout_clamp;
        ] );
      ("page_batch", [ QCheck_alcotest.to_alcotest page_batch_test ]);
      ( "determinism",
        [
          Alcotest.test_case "snapshot batch, fan-out 1/2/4/clamp" `Quick
            test_fanout_determinism;
          Alcotest.test_case "snapshot batch across retention truncation" `Quick
            test_fanout_determinism_across_truncation;
          Alcotest.test_case "scrub sweep, fan-out 1 vs 4" `Quick test_scrub_fanout_determinism;
          Alcotest.test_case "isolated audits, fan-out 1 vs 2/4" `Quick test_audit_stress;
        ] );
      ( "sessions",
        [ Alcotest.test_case "prewarmed reader equivalence" `Quick test_prewarm_reader_equivalence ] );
    ]
