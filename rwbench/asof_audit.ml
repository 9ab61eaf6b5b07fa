(* asof_audit: read-only audits of a long TPC-C history on isolated
   snapshots ([~shared:false]) at targets 10-90% back (the paper's
   Figs. 7-11 path).

   The log is many times larger than the log block cache and the 4 MiB
   decoded-record cache, so chain lookups, segment loads, decode,
   Page_undo apply and the staged batch pipeline do the work.  No writes
   run and the Prepared_cache is bypassed.

   One audit = create the snapshot, run [queries] stock-level queries on
   it, then a full-table report (Time_travel.warm, then Database.scan of
   the stock table).  Each audit queries one district of every
   warehouse, and the district moves on every cycle of targets, so a run
   samples all of them on a fixed schedule.  Oracle: set-up records,
   from the primary at each audit instant, every district's stock-level
   answer and a digest of the stock table. *)

open Common

let history_txns = 4000
let instants = 9
let queries = 4
let report_table = "stock"
let pool_pages = 1024
let log_cache_blocks = 64
let log_block_bytes = 16384

type target = { wall : float; back : float; answers : int array; digest : string }

type t = { db : Database.t; cfg : Tpcc.config; targets : target array; mutable audits : int }

(* Audit [i] reads [targets.(order.(i mod instants))], alternating far
   and near targets.  The order is the same for every seed: each audit
   inherits the log caches the previous one left, so a seeded order
   would change the work from seed to seed. *)
let order = [| 4; 0; 8; 2; 6; 1; 7; 3; 5 |]

let districts cfg = cfg.Tpcc.warehouses * cfg.Tpcc.districts
let district_wd cfg k = (1 + (k / cfg.Tpcc.districts), 1 + (k mod cfg.Tpcc.districts))

(* Query [q] of audit [i] reads warehouse [q + 1]; the district moves on
   with every cycle of [instants] audits. *)
let query_district cfg ~i ~q =
  (q * cfg.Tpcc.districts) + (((i / instants) + (3 * q)) mod cfg.Tpcc.districts)

let answers db cfg =
  Array.init (districts cfg) (fun k ->
      let w, d = district_wd cfg k in
      Tpcc.stock_level db cfg ~w ~d ~threshold:15)

let digest_rows rows =
  let b = Buffer.create 65536 in
  List.iter
    (fun row ->
      List.iter
        (fun v ->
          Buffer.add_string b (Row.to_string v);
          Buffer.add_char b '|')
        row;
      Buffer.add_char b '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let table_digest db =
  let rows = ref [] in
  Database.scan db ~table:report_table ~f:(fun r -> rows := r :: !rows);
  digest_rows !rows

let setup ~seed =
  let eng = Engine.create ~media:Media.ssd () in
  let db =
    Engine.create_database eng ~pool_capacity:pool_pages ~checkpoint_interval_us:2_000_000.0
      ~log_cache_blocks ~log_block_bytes "audit"
  in
  Database.set_group_commit db ~max_batch_bytes:(64 * 1024) ~max_delay_us:2_000.0;
  let cfg = { Tpcc.default_config with Tpcc.seed } in
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  let drv = Tpcc.create db cfg in
  (* Record the oracle at the end of each tenth of the history; the
     audit at [k] tenths done reads (10 - k) tenths back. *)
  let step = history_txns / (instants + 1) in
  let recorded =
    Array.init instants (fun _ ->
        ignore (Tpcc.run_mix drv ~txns:step);
        (Database.now_us db, answers db cfg, table_digest db))
  in
  ignore (Tpcc.run_mix drv ~txns:(history_txns - (instants * step)));
  let targets =
    Array.mapi
      (fun k (wall, answers, digest) ->
        { wall; back = float_of_int (instants - k) /. float_of_int (instants + 1); answers; digest })
      recorded
  in
  { db; cfg; targets; audits = 0 }

let drop view = Option.iter As_of_snapshot.drop (Database.snapshot_handle view)

let op t i =
  let target = t.targets.(order.(i mod instants)) in
  let where = Printf.sprintf "audit %.0f%% back" (100.0 *. target.back) in
  Meter.timed Op (fun () ->
      attempt ("create snapshot, " ^ where) (fun () ->
          let view =
            Meter.timed Snapshot (fun () ->
                Database.create_as_of_snapshot ~shared:false t.db
                  ~name:(Printf.sprintf "audit-%d" i) ~wall_us:target.wall)
          in
          Option.iter note_snapshot (Database.snapshot_handle view);
          Fun.protect
            ~finally:(fun () ->
              Option.iter note_rewinds (Database.snapshot_handle view);
              drop view)
            (fun () ->
              for q = 0 to queries - 1 do
                attempt ("as-of stock-level, " ^ where) (fun () ->
                    let k = query_district t.cfg ~i ~q in
                    let w, d = district_wd t.cfg k in
                    let got =
                      Meter.timed Query (fun () -> Tpcc.stock_level view t.cfg ~w ~d ~threshold:15)
                    in
                    check (got = target.answers.(k))
                      (Printf.sprintf "%s: stock-level w%d d%d = %d, oracle %d" where w d got
                         target.answers.(k)))
              done;
              attempt ("report, " ^ where) (fun () ->
                  let rows = ref [] in
                  Meter.timed Report (fun () ->
                      let pages = Meter.timed Warm (fun () -> Time_travel.warm view) in
                      let f = !fig in
                      f.warms <- f.warms + 1;
                      f.warm_pages <- f.warm_pages + pages;
                      Meter.timed Scan (fun () ->
                          Database.scan view ~table:report_table ~f:(fun r -> rows := r :: !rows)));
                  check
                    (String.equal (digest_rows !rows) target.digest)
                    (where ^ ": report digest differs from the oracle")))));
  t.audits <- t.audits + 1

let window = 18
let cycle = instants
let units t = t.audits
let handles t = (Database.log t.db, Database.disk t.db, Database.clock t.db)
let pcache t = Some (Database.prepared_cache t.db)

let conditions t =
  let log = Database.log t.db in
  [
    ("loop", Printf.sprintf "closed; one auditor; %d queries + 1 report per audit" queries);
    ("buffer_pool", Printf.sprintf "%d pages vs %d written pages" pool_pages
        (Rw_storage.Disk.written_pages (Database.disk t.db)));
    ( "log",
      Printf.sprintf "%d B retained vs block cache %d B and record cache 4 MiB"
        (Log_manager.retained_bytes log) (log_cache_blocks * log_block_bytes) );
    ("history", Printf.sprintf "%d txns; targets %d, 10-90%% back" history_txns instants);
  ]

(* read = as-of stock-level, prepare = snapshot creation, work = the
   full-table report. *)
let slots = { read = Meter.Query; prepare = Meter.Snapshot; work = Meter.Report }
