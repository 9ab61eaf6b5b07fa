(* Shared pieces of the workloads: module aliases, outcome accounting and
   the per-operation engine figures the counted window accumulates. *)

module Media = Rw_storage.Media
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Time_travel = Rw_engine.Time_travel
module Tpcc = Rw_workload.Tpcc
module Log_manager = Rw_wal.Log_manager
module As_of_snapshot = Rw_core.As_of_snapshot
module Prepared_cache = Rw_core.Prepared_cache

(* --- outcomes ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail msg =
  incr failed;
  if !failed <= 10 then prerr_endline ("FAILED: " ^ msg)

(* One user-facing operation: it fails if it raises or if a check inside
   it disagrees with the oracle. *)
let attempt what f =
  incr attempted;
  match f () with
  | () -> ()
  | exception e -> fail (what ^ " raised " ^ Printexc.to_string e)

let check ok msg = if not ok then fail msg

(* --- engine figures returned by single calls -------------------------- *)

(* Accumulated over the counted window only (main resets them when the
   window starts and reads them when it ends). *)
type figures = {
  mutable snapshots : int;
  mutable create_modeled_us : float;
  mutable undo_modeled_us : float;
  mutable in_flight_txns : int;
  mutable fpi_used : int;
  mutable warms : int;
  mutable warm_pages : int;
  mutable restarts : int;
  mutable records_scanned : int;
  mutable backlog_pages : int;
  mutable analysis_modeled_us : float;
  mutable graphs : int;
  mutable graphs_from_index : int;
  mutable closure_size : int;
  mutable whatif_pages : int;
  mutable ops_replayed : int;
}

let zero () =
  {
    snapshots = 0;
    create_modeled_us = 0.0;
    undo_modeled_us = 0.0;
    in_flight_txns = 0;
    fpi_used = 0;
    warms = 0;
    warm_pages = 0;
    restarts = 0;
    records_scanned = 0;
    backlog_pages = 0;
    analysis_modeled_us = 0.0;
    graphs = 0;
    graphs_from_index = 0;
    closure_size = 0;
    whatif_pages = 0;
    ops_replayed = 0;
  }

let fig = ref (zero ())

let note_snapshot snap =
  let f = !fig in
  f.snapshots <- f.snapshots + 1;
  f.create_modeled_us <- f.create_modeled_us +. As_of_snapshot.creation_time_us snap;
  f.undo_modeled_us <- f.undo_modeled_us +. As_of_snapshot.undo_time_us snap;
  f.in_flight_txns <- f.in_flight_txns + As_of_snapshot.in_flight_txns snap

(* Call just before a snapshot is dropped. *)
let note_rewinds snap =
  let f = !fig in
  List.iter
    (fun r -> if r.As_of_snapshot.rc_fpi then f.fpi_used <- f.fpi_used + 1)
    (As_of_snapshot.rewinds snap)

(* --- the three end-to-end latency slots ------------------------------- *)

(* Every workload reports the same end-to-end metric names; each slot
   names the span whose samples fill it on that workload. *)
type slots = { read : Meter.name; prepare : Meter.name; work : Meter.name }
