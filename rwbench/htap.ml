(* htap: TPC-C writer sessions beside as-of reader sessions on one
   Session_manager, one buffer pool and one log (the paper's §6.3 mix).

   Readers read through the shared Prepared_cache at SplitLSNs staggered
   10-60% of the set-up history span back from now; each round one reader
   re-opens at a fresh target, so snapshot creation stays in the mix.
   The span is fixed at set-up, so the rewind distance stays the same
   while the writers keep appending.

   Oracle: after every round (and every history chunk during set-up) the
   primary's stock-level answers for the readers' districts are recorded
   with the wall time.  Readers only open at recorded instants, so every
   as-of answer must equal the recorded one. *)

open Common
module Session_manager = Rw_session.Session_manager

let writers = 2
let txns_per_step = 5
let readers = 4
let history_txns = 1500
let chunk = 50
let pool_pages = 1024
let log_cache_blocks = 128
let log_block_bytes = 65536

(* Snapshot creation resets the engine's checkpoint timer, so the
   periodic checkpoint that enforces retention is taken here. *)
let checkpoint_every = 10

(* Reader [i]'s district and how far back (as a share of the span) it
   reads. *)
let reader_wd cfg i = (1 + (i mod cfg.Tpcc.warehouses), 1 + ((3 * i) mod cfg.Tpcc.districts))
let reader_back i = 0.10 +. (0.50 *. float_of_int i /. float_of_int (readers - 1))

type instant = { wall : float; answers : int array }

type t = {
  db : Database.t;
  cfg : Tpcc.config;
  sm : Session_manager.t;
  span_us : float;
  span_bytes : int;  (** log appended over the set-up history *)
  mutable instants : instant array;  (** ascending by wall time *)
  mutable n_instants : int;
  sessions : Session_manager.session option array;  (** reader [i]'s session *)
  mutable txns : int;
}

let answers db cfg =
  Array.init readers (fun i ->
      let w, d = reader_wd cfg i in
      Tpcc.stock_level db cfg ~w ~d ~threshold:15)

let record t =
  if t.n_instants = Array.length t.instants then begin
    let a = Array.make (2 * t.n_instants) t.instants.(0) in
    Array.blit t.instants 0 a 0 t.n_instants;
    t.instants <- a
  end;
  t.instants.(t.n_instants) <- { wall = Database.now_us t.db; answers = answers t.db t.cfg };
  t.n_instants <- t.n_instants + 1

(* The newest recorded instant at or before [target]. *)
let instant_before t target =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.instants.(mid).wall <= target then go mid hi else go lo mid
  in
  t.instants.(go 0 t.n_instants)

let open_reader t i =
  let inst = instant_before t (Database.now_us t.db -. (reader_back i *. t.span_us)) in
  let w, d = reader_wd t.cfg i in
  let expect = inst.answers.(i) in
  let step view =
    attempt "as-of stock-level" (fun () ->
        let got = Meter.timed Query (fun () -> Tpcc.stock_level view t.cfg ~w ~d ~threshold:15) in
        check (got = expect)
          (Printf.sprintf "reader %d: stock-level %d, oracle %d at %.0f us" i got expect inst.wall))
  in
  attempt "open as-of reader" (fun () ->
      let s =
        Meter.timed Snapshot (fun () ->
            Session_manager.open_reader t.sm ~name:(Printf.sprintf "reader-%d" i)
              ~wall_us:inst.wall ~step:(fun view -> Meter.timed Reader_step (fun () -> step view)))
      in
      Option.iter (fun snap -> note_snapshot snap) (Database.snapshot_handle (Session_manager.view s));
      t.sessions.(i) <- Some s)

let close_reader t i =
  Option.iter
    (fun s ->
      Option.iter note_rewinds (Database.snapshot_handle (Session_manager.view s));
      Session_manager.close t.sm s;
      t.sessions.(i) <- None)
    t.sessions.(i)

let setup ~seed =
  let eng = Engine.create ~media:Media.ssd () in
  let db =
    Engine.create_database eng ~pool_capacity:pool_pages ~checkpoint_interval_us:2_000_000.0
      ~log_cache_blocks ~log_block_bytes "htap"
  in
  Database.set_group_commit db ~max_batch_bytes:(64 * 1024) ~max_delay_us:2_000.0;
  let cfg = { Tpcc.default_config with Tpcc.seed } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let sm = Session_manager.create db in
  let t0 = Database.now_us db in
  let t =
    {
      db;
      cfg;
      sm;
      span_us = 0.0;
      span_bytes = 0;
      instants = Array.make 64 { wall = t0; answers = answers db cfg };
      n_instants = 1;
      sessions = Array.make readers None;
      txns = 0;
    }
  in
  let drv = Tpcc.create db cfg in
  let b0 = Log_manager.total_appended_bytes (Database.log db) in
  for _ = 1 to history_txns / chunk do
    ignore (Tpcc.run_mix drv ~txns:chunk);
    record t
  done;
  let span_us = Database.now_us db -. t0 in
  let span_bytes = Log_manager.total_appended_bytes (Database.log db) - b0 in
  (* Log older than twice the span is never read again. *)
  Database.set_retention db (Some (2.0 *. span_us));
  for i = 0 to writers - 1 do
    let wdrv = Tpcc.create db { cfg with Tpcc.seed = seed + (101 * (i + 1)) } in
    ignore
      (Session_manager.open_writer sm ~name:(Printf.sprintf "writer-%d" i) ~step:(fun _ ->
           for _ = 1 to txns_per_step do
             attempt "tpcc transaction" (fun () ->
                 ignore (Meter.timed Txn (fun () -> Tpcc.run_mix wdrv ~txns:1)))
           done))
  done;
  let t = { t with span_us; span_bytes } in
  for i = 0 to readers - 1 do
    open_reader t i
  done;
  t

(* One round: every session steps once, then one reader re-opens at a
   fresh target; every [checkpoint_every] rounds a checkpoint enforces
   retention.  The oracle instant is recorded outside the timed op. *)
let op t i =
  Meter.timed Op (fun () ->
      Meter.timed Round (fun () -> Session_manager.run t.sm ~rounds:1);
      let r = i mod readers in
      close_reader t r;
      open_reader t r;
      if i mod checkpoint_every = checkpoint_every - 1 then ignore (Database.checkpoint t.db));
  t.txns <- t.txns + (writers * txns_per_step);
  record t

let window = 300
let cycle = readers
let units t = t.txns
let handles t = (Database.log t.db, Database.disk t.db, Database.clock t.db)
let pcache t = Some (Database.prepared_cache t.db)

let conditions t =
  let log = Database.log t.db in
  [
    ("loop", Printf.sprintf "closed; %d writers x %d txns + %d readers per round" writers
        txns_per_step readers);
    ("buffer_pool", Printf.sprintf "%d pages vs %d written pages" pool_pages
        (Rw_storage.Disk.written_pages (Database.disk t.db)));
    ( "log",
      Printf.sprintf
        "%d B retained; readers reach back at most %.0f B; block cache %d B; record cache 4 MiB"
        (Log_manager.retained_bytes log)
        (0.6 *. float_of_int t.span_bytes)
        (log_cache_blocks * log_block_bytes) );
    ("history", Printf.sprintf "%d txns over %.0f simulated us" history_txns t.span_us);
  ]

(* read = as-of stock-level, prepare = snapshot creation, work = one
   writer transaction. *)
let slots = { read = Meter.Query; prepare = Meter.Snapshot; work = Meter.Txn }
