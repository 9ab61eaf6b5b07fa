(* repair_restart: the paper's application-error-recovery use case on a
   table of blind fixed-size updates (built like the [wf_*] tables of
   the e11 experiment).  One cycle:

   1. a checkpoint (retention rides on it, so the retained log and the
      dependency graph stay the same size from cycle to cycle), then a
      burst of update transactions with one mistaken transaction inside
      it and two dependents that overwrite its cells on purpose;
   2. REWIND TRANSACTION in place: Dep_graph.build + Selective.repair;
   3. a crash with one transaction in flight (its log records durable);
   4. instant restart, a first query on the in-flight transaction's
      cell, and a full drain of the recovery backlog.

   Oracle: a per-cell model of the last non-victim writer.  After the
   cycle every acknowledged commit other than the victim is present, the
   victim's writes are gone, and the in-flight transaction is gone. *)

open Common
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
module Schema = Rw_catalog.Schema
module Prng = Rw_storage.Prng

let table = "cells"
let cells = 48
let burst = 12
let value_len = 600

(* A leaf holds at most ~13 rows of [value_len] bytes, so cells [gap]
   keys apart never share a page: page-level dependencies between
   transactions are exactly cell sharing. *)
let gap = 17
let pool_pages = 256
let txn_gap_us = 1000.0
let segment_bytes = 128 * 1024

(* Log older than two bursts is never needed again.  The setting is not
   durable, so it is applied again after every restart. *)
let retain db = Database.set_retention db (Some (2.0 *. float_of_int burst *. txn_gap_us))

type t = {
  mutable db : Database.t;
  seed : int;
  model : string array;  (** cell -> value of its last non-victim writer *)
  mutable epoch : int;
  mutable cycles : int;
}

let value ~seed ~epoch ~key =
  let head = Printf.sprintf "s%d.e%d.k%d." seed epoch key in
  head ^ String.make (value_len - String.length head) 'x'

let key c = Int64.of_int (c * gap)

let setup ~seed =
  let eng = Engine.create ~media:Media.ssd () in
  let db =
    Engine.create_database eng ~pool_capacity:pool_pages ~log_segment_bytes:segment_bytes "cells"
  in
  Database.with_txn db (fun txn ->
      ignore
        (Database.create_table db txn ~table
           ~columns:[ { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]
           ()));
  (* Every cell key plus the filler rows that keep cells on distinct
     leaves; all page splits happen here, before any cycle. *)
  let max_key = cells * gap in
  let k = ref 0 in
  while !k <= max_key do
    Database.with_txn db (fun txn ->
        let stop = min max_key (!k + 63) in
        while !k <= stop do
          Database.insert db txn ~table [ Row.Int (Int64.of_int !k); Row.Text (value ~seed ~epoch:0 ~key:!k) ];
          incr k
        done)
  done;
  retain db;
  ignore (Database.checkpoint db);
  {
    db;
    seed;
    model = Array.init cells (fun c -> value ~seed ~epoch:0 ~key:(c * gap));
    epoch = 0;
    cycles = 0;
  }

(* The cells each burst transaction writes: one random cell each, the
   victim two, and the two transactions after it one of the victim's
   cells plus a random one. *)
let plan rng =
  let v = 3 + Prng.int rng 4 in
  let a = Prng.int rng cells in
  let b = (a + 1 + Prng.int rng (cells - 1)) mod cells in
  let writes =
    Array.init burst (fun j ->
        if j = v then [ a; b ]
        else if j = v + 1 then [ a; Prng.int rng cells ]
        else if j = v + 2 then [ b; Prng.int rng cells ]
        else [ Prng.int rng cells ])
  in
  (v, writes)

let update db txn ~seed ~epoch c =
  Database.update db txn ~table [ Row.Int (key c); Row.Text (value ~seed ~epoch ~key:(c * gap)) ]

let check_state t what =
  let n = ref 0 in
  Database.scan t.db ~table ~f:(fun row ->
      incr n;
      match row with
      | [ Row.Int k; Row.Text v ] when Int64.rem k (Int64.of_int gap) = 0L && k < key cells ->
          let c = Int64.to_int k / gap in
          check (String.equal v t.model.(c)) (Printf.sprintf "%s: cell %d disagrees with the model" what c)
      | [ Row.Int _; Row.Text _ ] -> ()
      | _ -> fail (what ^ ": malformed row"));
  check (!n = (cells * gap) + 1) (Printf.sprintf "%s: %d rows, expected %d" what !n ((cells * gap) + 1))

let op t i =
  let rng = Prng.create ((t.seed * 1_000_003) + i) in
  let v, writes = plan rng in
  let seed = t.seed in
  let victim = ref None in
  Meter.timed Op (fun () ->
      ignore (Database.checkpoint t.db);
      Meter.timed Burst (fun () ->
          Array.iteri
            (fun j cs ->
              Rw_storage.Sim_clock.advance_us (Database.clock t.db) txn_gap_us;
              t.epoch <- t.epoch + 1;
              let epoch = t.epoch in
              attempt "burst transaction" (fun () ->
                  let txn = Database.begin_txn t.db in
                  List.iter (update t.db txn ~seed ~epoch) cs;
                  Database.commit t.db txn;
                  if j = v then victim := Some (Rw_txn.Txn_manager.txn_id txn)
                  else List.iter (fun c -> t.model.(c) <- value ~seed ~epoch ~key:(c * gap)) cs))
            writes);
      attempt "rewind transaction" (fun () ->
          let victim = Option.get !victim in
          Meter.timed Repair (fun () ->
              let log = Database.log t.db in
              let graph = Meter.timed Graph (fun () -> Dep_graph.build ~log) in
              let f = !fig in
              f.graphs <- f.graphs + 1;
              if Dep_graph.built_from_index graph then f.graphs_from_index <- f.graphs_from_index + 1;
              match
                Meter.timed Replay (fun () ->
                    Selective.repair ~ctx:(Database.ctx t.db) ~log ~graph ~victim
                      ~wall_us:(Database.now_us t.db) ())
              with
              | Ok st ->
                  f.closure_size <- f.closure_size + st.Selective.closure_size;
                  f.whatif_pages <- f.whatif_pages + st.Selective.pages_rewound;
                  f.ops_replayed <- f.ops_replayed + st.Selective.ops_replayed
              | Error conflicts ->
                  fail (Printf.sprintf "rewind transaction refused with %d conflicts" (List.length conflicts))));
      (* The in-flight transaction: its update is durable in the log but
         never commits, so recovery must roll it back. *)
      let x = Prng.int rng cells in
      t.epoch <- t.epoch + 1;
      let epoch = t.epoch in
      attempt "in-flight update" (fun () ->
          let txn = Database.begin_txn t.db in
          update t.db txn ~seed ~epoch x;
          Log_manager.flush_all (Database.log t.db));
      attempt "crash and recover" (fun () ->
          Meter.timed Recovery (fun () ->
              Meter.timed Restart (fun () ->
                  t.db <- Meter.timed Reopen (fun () -> Database.crash_and_reopen ~instant:true t.db);
                  let f = !fig in
                  f.restarts <- f.restarts + 1;
                  f.backlog_pages <- f.backlog_pages + Database.recovery_backlog t.db;
                  let got = Meter.timed First_query (fun () -> Database.get t.db ~table ~key:(key x)) in
                  check
                    (got = Some [ Row.Int (key x); Row.Text t.model.(x) ])
                    (Printf.sprintf "first query after restart: cell %d is not its last committed value" x));
              Meter.timed Drain (fun () -> Database.recovery_drain_all t.db));
          retain t.db;
          Option.iter
            (fun st ->
              let f = !fig in
              f.records_scanned <- f.records_scanned + st.Rw_recovery.Recovery.analysis.records_scanned;
              f.analysis_modeled_us <- f.analysis_modeled_us +. st.Rw_recovery.Recovery.analysis_us)
            (Database.last_recovery_stats t.db)));
  attempt "state check" (fun () -> check_state t (Printf.sprintf "cycle %d" i));
  t.cycles <- t.cycles + 1

let window = 200
let cycle = 1
let units t = t.cycles
let handles t = (Database.log t.db, Database.disk t.db, Database.clock t.db)
let pcache _ = None

let conditions t =
  [
    ("loop", Printf.sprintf "closed; one client; %d-txn burst + repair + crash + restart per cycle" burst);
    ("buffer_pool", Printf.sprintf "%d pages vs %d written pages" pool_pages
        (Rw_storage.Disk.written_pages (Database.disk t.db)));
    ("log", Printf.sprintf "%d B retained" (Log_manager.retained_bytes (Database.log t.db)));
    ("table", Printf.sprintf "%d cells of %d B, %d rows" cells value_len ((cells * gap) + 1));
  ]

(* read = crash until the first query answers, prepare = REWIND
   TRANSACTION in place, work = crash until the backlog is drained. *)
let slots = { read = Meter.Restart; prepare = Meter.Repair; work = Meter.Recovery }
