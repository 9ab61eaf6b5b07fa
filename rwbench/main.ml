(* The rewinddb benchmark: three seeded closed-loop workloads on the host
   clock, every answer checked against an oracle.

     main.exe --workload htap|asof_audit|repair_restart --seed N
              --seconds S --trace 0|1

   Each run sets the workload up [setups] times (set-up time is reported
   as their median), runs a counted window of a fixed number of
   operations, then keeps running operations until [--seconds] have
   passed since the window began and a balanced cycle of the workload's
   inputs is complete.  With --trace 0 the last line of
   standard output is a JSON object holding every end-to-end metric; with
   --trace 1 it holds every per-layer metric instead, host-time spans
   are recorded after the counted window, and the spans are written to
   .bench_build/trace/.  Counts come from the counted window only, which
   runs the same code in both modes, so they repeat exactly.  Every host
   time is scaled by Meter.speed_scale (see there).  README.md
   beside this file describes every metric. *)

open Common

module type WORKLOAD = sig
  type t

  val setup : seed:int -> t
  val op : t -> int -> unit
  val window : int

  (* Operations in one balanced round of the workload's inputs: the timed
     loop only stops at a multiple, so every run sees each input equally
     often.  [window] is a multiple. *)
  val cycle : int
  val units : t -> int
  val handles : t -> Log_manager.t * Rw_storage.Disk.t * Rw_storage.Sim_clock.t
  val pcache : t -> Prepared_cache.t option
  val conditions : t -> (string * string) list
  val slots : slots
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("htap", (module Htap)); ("asof_audit", (module Asof_audit));
    ("repair_restart", (module Repair_restart));
  ]

let setups = 5

(* How often, in host seconds, the reference task runs after the counted
   window. *)
let calibrate_every_s = 0.05

let usage () =
  prerr_endline
    "usage: main.exe --workload htap|asof_audit|repair_restart --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        seed := Some (int_arg s);
        go rest
    | "--seconds" :: s :: rest ->
        seconds := Some (int_arg s);
        go rest
    | "--trace" :: s :: rest ->
        trace := Some (int_arg s);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace
    when List.mem_assoc w workloads && seconds >= 1 && (trace = 0 || trace = 1) ->
      (w, seed, seconds, trace = 1)
  | _ -> usage ()

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let mib = 1_048_576.0

(* --- per-layer metrics --------------------------------------------------- *)

(* Counts over the counted window, as (name, unit, value); every value is
   an exact function of engine counters, so it repeats at one seed. *)
let window_counts ~(w0 : Meter.snap) ~(w1 : Meter.snap) ~(f : figures) ~ops ~reads ~log
    ~pc =
  let module I = Rw_storage.Io_stats in
  let l = I.diff w1.log_io w0.log_io and d = I.diff w1.disk_io w0.disk_io in
  let p c = fi (Meter.delta w0 w1 c) in
  let module P = Rw_obs.Probes in
  let pc_hits, pc_delta, pc_miss = pc in
  let ops = fi ops in
  [
    ("txn.commits_per_flush", "ratio", ratio (fi l.I.log_commits_coalesced) (fi l.I.log_flush_batches));
    ("wal.append_bytes_per_txn", "B", ratio (p P.log_append_bytes) (p P.commits));
    ("wal.flush_batches", "count", fi l.I.log_flush_batches);
    ("wal.block_hit_ratio", "ratio", ratio (fi l.I.log_block_hits) (fi (l.I.log_block_hits + l.I.log_block_misses)));
    ( "wal.record_hit_ratio", "ratio",
      ratio (fi l.I.log_record_hits) (fi (l.I.log_record_hits + l.I.log_record_misses)) );
    ("wal.segments_loaded", "count", p P.log_segments_loaded);
    ("wal.log_random_reads_per_op", "count", ratio (fi l.I.random_reads) ops);
    ("wal.resident_mb", "MiB", fi (Log_manager.resident_bytes log) /. mib);
    ("buf.hit_ratio", "ratio", ratio (p P.fetch_hits) (p P.fetch_hits +. p P.fetch_misses));
    ("buf.evictions", "count", p P.evictions);
    ("buf.writebacks", "count", p P.writebacks);
    ("snap.create_modeled_ms", "ms", ratio f.create_modeled_us (fi f.snapshots) /. 1000.0);
    ("snap.undo_modeled_ms", "ms", ratio f.undo_modeled_us (fi f.snapshots) /. 1000.0);
    ("snap.in_flight_txns", "count", fi f.in_flight_txns);
    ("snap.side_hits_per_query", "count", ratio (p P.snapshot_side_hits) (fi reads));
    ("undo.pages_rewound_per_query", "count", ratio (p P.page_rewinds) (fi reads));
    ("undo.ops_undone_per_page", "count", ratio (p P.ops_undone) (p P.page_rewinds));
    ("undo.chain_length_p50", "count", Meter.chain_p50 w0 w1);
    ("undo.fpi_used", "count", fi f.fpi_used);
    ("pcache.hit_ratio", "ratio", ratio (fi (pc_hits + pc_delta)) (fi (pc_hits + pc_delta + pc_miss)));
    ("pcache.delta_hits", "count", fi pc_delta);
    ("pool.pages_per_warm", "count", ratio (fi f.warm_pages) (fi f.warms));
    ("pool.tasks", "count", p P.pool_tasks);
    ("recovery.records_scanned", "count", fi f.records_scanned);
    ("recovery.backlog_pages", "count", fi f.backlog_pages);
    ("recovery.pages_on_demand", "count", p P.recovery_pages_on_demand);
    ("recovery.redone", "count", p P.recovery_redone);
    ("recovery.undone", "count", p P.recovery_undone);
    ("recovery.analysis_modeled_ms", "ms", ratio f.analysis_modeled_us (fi f.restarts) /. 1000.0);
    ("whatif.graph_from_index_ratio", "ratio", ratio (fi f.graphs_from_index) (fi f.graphs));
    ("whatif.closure_size", "count", fi f.closure_size);
    ("whatif.pages_rewound", "count", fi f.whatif_pages);
    ("whatif.ops_replayed", "count", fi f.ops_replayed);
    ("whatif.conflicts", "count", p P.whatif_conflicts);
    ("io.modeled_ms_per_op", "ms", ratio (w1.modeled_us -. w0.modeled_us) ops /. 1000.0);
    ("io.data_random_reads_per_op", "count", ratio (fi d.I.random_reads) ops);
    ("gc.minor_mb_per_op", "MiB", ratio ((w1.minor_words -. w0.minor_words) *. 8.0 /. mib) ops);
    ("gc.promoted_mb_per_op", "MiB", ratio ((w1.promoted_words -. w0.promoted_words) *. 8.0 /. mib) ops);
    ("gc.major_collections", "count", fi (w1.major_collections - w0.major_collections));
  ]

(* Host-time metrics of the traced part of the run. *)
let host_metrics ~scale ~traced_units =
  let values n = Meter.Samples.values ~scale (Meter.samples_of n) in
  let q n = Meter.Samples.quantile (values n) 0.5 in
  let sum n = Meter.Samples.sum (values n) in
  let op_s = sum Meter.Op /. 1000.0 in
  let unscaled_op_s = Meter.Samples.(sum (values (Meter.samples_of Meter.Op))) /. 1000.0 in
  let self = Meter.self_ms_per_op ~scale in
  [
    ("tpcc.txn_host_ms_p50", "ms", q Meter.Txn);
    ("pool.warm_host_ms_p50", "ms", q Meter.Warm);
    ("scan.host_ms_p50", "ms", q Meter.Scan);
    ("session.reader_host_share", "ratio", ratio (sum Meter.Reader_step) (sum Meter.Round));
    ("recovery.open_host_ms_p50", "ms", q Meter.Reopen);
    ("recovery.first_query_host_ms_p50", "ms", q Meter.First_query);
    ("recovery.drain_host_ms_p50", "ms", q Meter.Drain);
    ("whatif.graph_host_ms_p50", "ms", q Meter.Graph);
    ("whatif.replay_host_ms_p50", "ms", q Meter.Replay);
    ("trace.ops_per_s", "1/s", ratio (fi traced_units) op_s);
    ("trace.overhead_share", "ratio", ratio !Meter.overhead_s unscaled_op_s);
  ]
  @ Array.to_list
      (Array.mapi
         (fun i n -> ("self." ^ Meter.label n ^ "_ms_per_op", "ms", self.(i)))
         Meter.names)

(* --- output --------------------------------------------------------------- *)

let json_metrics l =
  String.concat ", "
    (List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) l)

let run (module W : WORKLOAD) ~name ~seed ~seconds ~traced =
  Rw_pool.Domain_pool.set_fanout (Some 1);
  Rw_obs.Trace.disable ();
  let setup_times = Meter.Samples.create () in
  let state = ref None in
  for _ = 1 to setups do
    state := None;
    Gc.compact ();
    let t0 = Meter.now () in
    state := Some (W.setup ~seed);
    Meter.Samples.add setup_times ~at:t0 (Meter.now () -. t0);
    for _ = 1 to 5 do
      Meter.calibrate ()
    done
  done;
  let t = Option.get !state in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d\n" name seed seconds
    (if traced then 1 else 0);
  Printf.printf "run: nproc %d  ocaml %s  pool fan-out %d  sim trace off %b\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Rw_pool.Domain_pool.fanout_cap ()) (not (Rw_obs.Trace.on ()));
  List.iter (fun (k, v) -> Printf.printf "run: %s: %s\n" k v) (W.conditions t);
  let log, disk, clock = W.handles t in
  let pc_read () =
    match W.pcache t with
    | Some c -> (Prepared_cache.hits c, Prepared_cache.delta_hits c, Prepared_cache.misses c)
    | None -> (0, 0, 0)
  in
  (* Counted window. *)
  Array.iter Meter.Samples.clear Meter.samples;
  fig := zero ();
  Gc.compact ();
  let started = Meter.now () in
  let w0 = Meter.snapshot ~log ~disk ~clock in
  let h0, d0, m0 = pc_read () in
  for i = 0 to W.window - 1 do
    Meter.current_op := i;
    W.op t i
  done;
  let log, disk, clock = W.handles t in
  let w1 = Meter.snapshot ~log ~disk ~clock in
  let h1, d1, m1 = pc_read () in
  (* Peak memory over set-up plus the counted window: a fixed amount of
     work, so the figure does not grow with how many operations the host
     completes in the time. *)
  let peak_rss_mb = Meter.peak_rss_mb () in
  let wfig = !fig in
  fig := zero ();
  let reads =
    Meter.Samples.count (Meter.samples_of Meter.Query)
    + Meter.Samples.count (Meter.samples_of Meter.Report)
  in
  let counts =
    window_counts ~w0 ~w1 ~f:wfig ~ops:W.window ~reads ~log
      ~pc:(h1 - h0, d1 - d0, m1 - m0)
  in
  let window_units = W.units t in
  if traced then Meter.start_tracing ();
  (* The rest of the measured run. *)
  let deadline = started +. fi seconds in
  let i = ref W.window in
  let calibrated = ref (Meter.now ()) in
  while Meter.now () < deadline || !i mod W.cycle <> 0 do
    Meter.current_op := !i;
    W.op t !i;
    incr i;
    if Meter.now () -. !calibrated >= calibrate_every_s then begin
      Meter.calibrate ();
      calibrated := Meter.now ()
    end
  done;
  let scale = Meter.speed_scale () in
  let s n = Meter.samples_of n in
  let count n = Meter.Samples.count (s n) in
  let p n q = Meter.Samples.quantile (Meter.Samples.values ~scale (s n)) q in
  let op_s = Meter.Samples.sum (Meter.Samples.values ~scale (s Meter.Op)) /. 1000.0 in
  let setup_s = Meter.median_of (Meter.Samples.values ~scale setup_times) in
  let slots = W.slots in
  let e2e =
    [
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MiB", peak_rss_mb);
      ("ops_per_s", "1/s", ratio (fi (W.units t)) op_s);
      ("read_ms_p50", "ms", p slots.read 0.5);
      ("read_ms_p95", "ms", p slots.read 0.95);
      ("prepare_ms_p50", "ms", p slots.prepare 0.5);
      ("work_ms_p50", "ms", p slots.work 0.5);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "end: %s: %s\n" k v) (W.conditions t);
  Printf.printf "end: heap top %.1f MiB\n"
    (fi (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. mib);
  let raw_ref = Meter.Samples.values Meter.reference in
  Printf.printf "reference: %d runs of the reference task, median %.4f ms (quartiles %.4f %.4f)\n"
    (Float.Array.length raw_ref) (Meter.median_of raw_ref)
    (Meter.Samples.quantile raw_ref 0.25)
    (Meter.Samples.quantile raw_ref 0.75);
  Printf.printf "setup (unscaled): %s s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.3f") (Float.Array.to_list (Meter.Samples.values setup_times))));
  Printf.printf "samples: ops %d  read(%s) %d  prepare(%s) %d  work(%s) %d  units %d\n"
    (count Meter.Op) (Meter.label slots.read) (count slots.read) (Meter.label slots.prepare)
    (count slots.prepare) (Meter.label slots.work) (count slots.work) (W.units t);
  List.iter (fun (n, u, v) -> Printf.printf "count %s = %.17g %s\n" n v u) counts;
  let digest =
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map (fun (n, _, v) -> Printf.sprintf "%s=%.17g" n v) counts)))
  in
  Printf.printf "counts-digest %s\n" digest;
  let metrics =
    if traced then begin
      let dir = Filename.concat ".bench_build" "trace" in
      (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" name seed) in
      Option.iter (fun st -> Meter.write_spans st ~path) !Meter.store;
      Printf.printf "trace: %d spans (%d dropped) written to %s\n" !Meter.spans !Meter.dropped path;
      counts @ host_metrics ~scale ~traced_units:(W.units t - window_units)
    end
    else e2e
  in
  List.iter (fun (n, u, v) -> Printf.printf "metric %s = %.6g %s\n" n v u) metrics;
  Printf.printf "attempted %d  failed %d\n" !attempted !failed;
  let correct = !failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed (json_metrics metrics);
  if not correct then exit 1

let () =
  let name, seed, seconds, traced = parse Sys.argv in
  run (List.assoc name workloads) ~name ~seed ~seconds ~traced
