(* Host-clock measurement for the benchmark: per-call sample buffers,
   a span store for traced runs, and snapshots of the counters the
   engine already keeps.

   Every wrapped call records its host duration into the sample buffer
   of its span name in both modes, so end-to-end and per-layer timings
   come from one code path.  A traced run additionally writes one span
   row (name, start, end, parent, op id, counter deltas) per call, but
   only after the counted window: the window runs the same code in both
   modes, so every count taken over it, garbage-collector counts
   included, is identical between the traced and untraced runs. *)

module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes

let now = Unix.gettimeofday

(* --- growable sample buffers ------------------------------------------ *)

module Samples = struct
  (* Each sample is a value and the host time it was taken at. *)
  type t = { mutable at : Float.Array.t; mutable v : Float.Array.t; mutable n : int }

  let create () = { at = Float.Array.make 64 0.0; v = Float.Array.make 64 0.0; n = 0 }

  let grow a n =
    let d = Float.Array.make (2 * n) 0.0 in
    Float.Array.blit a 0 d 0 n;
    d

  let add t ~at v =
    if t.n = Float.Array.length t.v then begin
      t.at <- grow t.at t.n;
      t.v <- grow t.v t.n
    end;
    Float.Array.unsafe_set t.at t.n at;
    Float.Array.unsafe_set t.v t.n v;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0

  (* The values, each multiplied by [scale] at the time it was taken. *)
  let values ?(scale = fun _ -> 1.0) t =
    Float.Array.init t.n (fun i -> Float.Array.get t.v i *. scale (Float.Array.get t.at i))

  let sum a = Float.Array.fold_left ( +. ) 0.0 a

  (* Linear interpolation between closest ranks; 0 when empty. *)
  let quantile a q =
    let n = Float.Array.length a in
    if n = 0 then 0.0
    else begin
      let a = Float.Array.copy a in
      Float.Array.sort Float.compare a;
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      Float.Array.get a lo +. (frac *. (Float.Array.get a hi -. Float.Array.get a lo))
    end
end

(* --- span names ------------------------------------------------------- *)

(* One name per call into a layer's public function that the workloads
   time.  Durations are kept in milliseconds. *)
type name =
  | Op  (** one top-level operation of the workload's closed loop *)
  | Round  (** htap: one [Session_manager.run ~rounds:1] *)
  | Txn  (** htap: one writer TPC-C transaction ([Tpcc.run_mix ~txns:1]) *)
  | Reader_step  (** htap: one reader session step *)
  | Query  (** [Tpcc.stock_level] against an as-of view *)
  | Snapshot  (** [Database.create_as_of_snapshot] / [Session_manager.open_reader] *)
  | Report  (** asof_audit: warm + scan *)
  | Warm  (** [Time_travel.warm] *)
  | Scan  (** [Database.scan] *)
  | Burst  (** repair_restart: the update burst *)
  | Repair  (** graph build + selective repair *)
  | Graph  (** [Dep_graph.build] *)
  | Replay  (** [Selective.repair] *)
  | Restart  (** crash until the first query answers *)
  | Reopen  (** [Database.crash_and_reopen ~instant:true] *)
  | First_query  (** the first [Database.get] after the reopen *)
  | Recovery  (** crash until [recovery_drain_all] returns *)
  | Drain  (** [Database.recovery_drain_all] *)

let names =
  [|
    Op; Round; Txn; Reader_step; Query; Snapshot; Report; Warm; Scan; Burst; Repair; Graph;
    Replay; Restart; Reopen; First_query; Recovery; Drain;
  |]

let index = function
  | Op -> 0
  | Round -> 1
  | Txn -> 2
  | Reader_step -> 3
  | Query -> 4
  | Snapshot -> 5
  | Report -> 6
  | Warm -> 7
  | Scan -> 8
  | Burst -> 9
  | Repair -> 10
  | Graph -> 11
  | Replay -> 12
  | Restart -> 13
  | Reopen -> 14
  | First_query -> 15
  | Recovery -> 16
  | Drain -> 17

let label = function
  | Op -> "op"
  | Round -> "session.round"
  | Txn -> "tpcc.txn"
  | Reader_step -> "session.reader_step"
  | Query -> "tpcc.stock_level"
  | Snapshot -> "database.create_as_of_snapshot"
  | Report -> "audit.report"
  | Warm -> "time_travel.warm"
  | Scan -> "database.scan"
  | Burst -> "repair.burst"
  | Repair -> "whatif.rewind_transaction"
  | Graph -> "dep_graph.build"
  | Replay -> "selective.repair"
  | Restart -> "restart.to_first_query"
  | Reopen -> "database.crash_and_reopen"
  | First_query -> "database.get"
  | Recovery -> "restart.to_drained"
  | Drain -> "database.recovery_drain_all"

let samples = Array.init (Array.length names) (fun _ -> Samples.create ())
let samples_of n = samples.(index n)

(* --- span store -------------------------------------------------------- *)

(* Counters read at every span boundary: engine-wide probes plus the
   minor heap's allocation count. *)
let span_counters =
  [|
    Probes.fetch_misses; Probes.page_rewinds; Probes.ops_undone; Probes.log_segments_loaded;
    Probes.log_appends;
  |]

let n_counters = Array.length span_counters
let capacity = 100_000

type store = {
  sp_name : int array;
  sp_parent : int array;
  sp_op : int array;
  sp_start : Float.Array.t;
  sp_stop : Float.Array.t;
  sp_minor : Float.Array.t;
  sp_deltas : int array;
}

(* Allocated when tracing starts, after the counted window, so the
   window's allocation and GC counts are the same in both modes. *)
let store = ref None
let spans = ref 0
let dropped = ref 0
let stack = Array.make 64 (-1)
let depth = ref 0
let current_op = ref 0

(* Host time spent on span bookkeeping, for the traced run's overhead. *)
let overhead_s = ref 0.0

let start_tracing () =
  Array.iter Samples.clear samples;
  store :=
    Some
      {
        sp_name = Array.make capacity 0;
        sp_parent = Array.make capacity (-1);
        sp_op = Array.make capacity 0;
        sp_start = Float.Array.make capacity 0.0;
        sp_stop = Float.Array.make capacity 0.0;
        sp_minor = Float.Array.make capacity 0.0;
        sp_deltas = Array.make (capacity * n_counters) 0;
      }

let open_span st n =
  let id = if !spans < capacity then !spans else -1 in
  if id >= 0 then begin
    incr spans;
    st.sp_name.(id) <- index n;
    st.sp_parent.(id) <- (if !depth > 0 then stack.(!depth - 1) else -1);
    st.sp_op.(id) <- !current_op;
    Float.Array.set st.sp_minor id (Gc.minor_words ());
    for k = 0 to n_counters - 1 do
      st.sp_deltas.((id * n_counters) + k) <- Metrics.counter_value span_counters.(k)
    done
  end
  else incr dropped;
  stack.(!depth) <- id;
  incr depth;
  id

let close_span st id ~t0 ~t1 =
  decr depth;
  if id >= 0 then begin
    Float.Array.set st.sp_start id t0;
    Float.Array.set st.sp_stop id t1;
    Float.Array.set st.sp_minor id (Gc.minor_words () -. Float.Array.get st.sp_minor id);
    for k = 0 to n_counters - 1 do
      let j = (id * n_counters) + k in
      st.sp_deltas.(j) <- Metrics.counter_value span_counters.(k) - st.sp_deltas.(j)
    done
  end

(* Run [f], recording its host duration under [n]; with tracing on, also
   record a span.  The span bookkeeping itself is timed into
   [overhead_s] and kept out of the recorded duration. *)
let timed n f =
  match !store with
  | None ->
      let t0 = now () in
      let r = f () in
      Samples.add (samples_of n) ~at:t0 ((now () -. t0) *. 1000.0);
      r
  | Some st ->
      let b0 = now () in
      let id = open_span st n in
      let t0 = now () in
      overhead_s := !overhead_s +. (t0 -. b0);
      let finish () =
        let t1 = now () in
        Samples.add (samples_of n) ~at:t0 ((t1 -. t0) *. 1000.0);
        close_span st id ~t0 ~t1;
        overhead_s := !overhead_s +. (now () -. t1)
      in
      Fun.protect ~finally:finish f

(* Self time per span name per recorded operation: each span's duration
   minus the part its direct children cover (children nest strictly, so
   summing their durations is exact), summed and divided by the number of
   [Op] spans recorded.  Durations are multiplied by [scale] at the span's
   start. *)
let self_ms_per_op ~scale =
  let self = Array.make (Array.length names) 0.0 in
  let ops = ref 0 in
  Option.iter
    (fun st ->
      for id = 0 to !spans - 1 do
        let t0 = Float.Array.get st.sp_start id in
        let d = (Float.Array.get st.sp_stop id -. t0) *. 1000.0 *. scale t0 in
        let n = st.sp_name.(id) in
        if n = index Op then incr ops;
        self.(n) <- self.(n) +. d;
        let p = st.sp_parent.(id) in
        if p >= 0 then self.(st.sp_name.(p)) <- self.(st.sp_name.(p)) -. d
      done)
    !store;
  Array.map (fun x -> if !ops = 0 then 0.0 else x /. float_of_int !ops) self

let write_spans st ~path =
  let oc = open_out path in
  Printf.fprintf oc "id\tname\top\tparent\tstart_s\tend_s\tminor_words";
  Array.iter (fun c -> Printf.fprintf oc "\t%s" (Metrics.counter_name c)) span_counters;
  output_char oc '\n';
  for id = 0 to !spans - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\t%.0f" id
      (label names.(st.sp_name.(id)))
      st.sp_op.(id) st.sp_parent.(id) (Float.Array.get st.sp_start id)
      (Float.Array.get st.sp_stop id) (Float.Array.get st.sp_minor id);
    for k = 0 to n_counters - 1 do
      Printf.fprintf oc "\t%d" st.sp_deltas.((id * n_counters) + k)
    done;
    output_char oc '\n'
  done;
  close_out oc

(* --- host-speed reference ----------------------------------------------- *)

(* On a shared host the speed of this process drifts by tens of percent
   over seconds, and it is allocation and garbage collection that slow
   down, not plain arithmetic or memory reads.  A fixed allocation-heavy
   reference task is timed between operations, and every host time is
   scaled by [reference_ms] over the median reference time around it
   (see [speed_scale]): the metrics read as milliseconds on a host where
   the task takes [reference_ms].  The task allocates, so it never runs
   inside the counted window. *)
module Int_map = Map.Make (Int)

let reference_task () =
  let m = ref Int_map.empty in
  for i = 0 to 3000 do
    m := Int_map.add ((i * 7919) land 65535) (string_of_int i) !m
  done;
  let h = Hashtbl.create 256 in
  Int_map.iter (fun k v -> Hashtbl.replace h v k) !m;
  Hashtbl.length h

let reference_ms = 2.0
let reference = Samples.create ()

let calibrate () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_task ()));
  Samples.add reference ~at:t0 ((now () -. t0) *. 1000.0)

let median_of a = Samples.quantile a 0.5

(* [speed_scale ()] is the factor to multiply a host time taken at host
   time [t] by (and to divide a rate by): [reference_ms] over the median
   of the reference runs within one second of [t], or of the nearest
   five when fewer ran in that span. *)
let speed_scale () =
  let n = reference.Samples.n in
  if n = 0 then fun _ -> 1.0
  else begin
    let at i = Float.Array.get reference.Samples.at i in
    let v i = Float.Array.get reference.Samples.v i in
    let local =
      Array.init n (fun j ->
          let lo = ref j and hi = ref j in
          while !lo > 0 && at j -. at (!lo - 1) <= 1.0 do decr lo done;
          while !hi < n - 1 && at (!hi + 1) -. at j <= 1.0 do incr hi done;
          while !hi - !lo < 4 && (!lo > 0 || !hi < n - 1) do
            if !lo > 0 then decr lo;
            if !hi < n - 1 then incr hi
          done;
          reference_ms /. median_of (Float.Array.init (!hi - !lo + 1) (fun k -> v (!lo + k))))
    in
    (* The reference run nearest to [t]. *)
    fun t ->
      let rec go lo hi =
        if hi - lo <= 1 then if hi < n && at hi -. t < t -. at lo then hi else lo
        else
          let mid = (lo + hi) / 2 in
          if at mid <= t then go mid hi else go lo mid
      in
      local.(go 0 n)
  end

(* --- counter snapshots ------------------------------------------------- *)

type snap = {
  log_io : Rw_storage.Io_stats.t;
  disk_io : Rw_storage.Io_stats.t;
  probes : int array;
  chain_buckets : int array;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  modeled_us : float;
}

let probe_list =
  [|
    Probes.log_appends; Probes.log_append_bytes; Probes.log_segments_loaded; Probes.commits;
    Probes.fetch_hits; Probes.fetch_misses; Probes.evictions; Probes.writebacks;
    Probes.page_rewinds; Probes.ops_undone; Probes.recovery_redone; Probes.recovery_undone;
    Probes.recovery_pages_on_demand; Probes.pool_tasks; Probes.snapshot_side_hits;
    Probes.snapshot_pages_materialized; Probes.whatif_conflicts;
  |]

let probe c =
  let rec find i = if probe_list.(i) == c then i else find (i + 1) in
  find 0

let snapshot ~log ~disk ~clock =
  let gc = Gc.quick_stat () in
  {
    log_io = Rw_storage.Io_stats.copy (Rw_wal.Log_manager.stats log);
    disk_io = Rw_storage.Io_stats.copy (Rw_storage.Disk.stats disk);
    probes = Array.map Metrics.counter_value probe_list;
    chain_buckets = Array.init Metrics.bucket_count (Metrics.hist_bucket Probes.chain_length);
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
    modeled_us = Rw_storage.Sim_clock.now_us clock;
  }

let delta a b c = b.probes.(probe c) - a.probes.(probe c)

(* Median of the chain-length histogram observed between two snapshots,
   as the lower bound of the bucket holding the middle observation. *)
let chain_p50 a b =
  let d = Array.mapi (fun i x -> x - a.chain_buckets.(i)) b.chain_buckets in
  let total = Array.fold_left ( + ) 0 d in
  if total = 0 then 0.0
  else begin
    let rec go i acc =
      let acc = acc + d.(i) in
      if 2 * acc >= total then Metrics.bucket_lower_bound i else go (i + 1) acc
    in
    go 0 0
  end

(* Peak resident set size of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0
