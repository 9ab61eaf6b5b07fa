(* Workload tests: TPC-C-like loader, transaction mix, cross-table
   consistency — including consistency of as-of snapshots and of the
   database after crash recovery under the full workload. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Database = Rw_engine.Database
module Engine = Rw_engine.Engine
module Row = Rw_engine.Row
module Tpcc = Rw_workload.Tpcc
module Twin = Rw_experiments.Twin
module Experiments = Rw_experiments.Experiments
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Tpcc.small_config

let mk () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~checkpoint_interval_us:500_000.0 "tpcc" in
  Tpcc.load db cfg;
  (eng, db, Tpcc.create db cfg)

let test_load_population () =
  let _, db, _ = mk () in
  check_int "warehouses" cfg.Tpcc.warehouses (Database.row_count db ~table:"warehouse");
  check_int "districts" (cfg.Tpcc.warehouses * cfg.Tpcc.districts)
    (Database.row_count db ~table:"district");
  check_int "customers"
    (cfg.Tpcc.warehouses * cfg.Tpcc.districts * cfg.Tpcc.customers)
    (Database.row_count db ~table:"customer");
  check_int "items" cfg.Tpcc.items (Database.row_count db ~table:"item");
  check_int "stock" (cfg.Tpcc.warehouses * cfg.Tpcc.items) (Database.row_count db ~table:"stock");
  check_int "initial orders"
    (cfg.Tpcc.warehouses * cfg.Tpcc.districts * cfg.Tpcc.initial_orders)
    (Database.row_count db ~table:"orders");
  check "initially consistent" true (Tpcc.consistency_check db cfg = Ok ())

let test_new_order_effects () =
  let _, db, drv = mk () in
  let orders0 = Database.row_count db ~table:"orders" in
  let lines0 = Database.row_count db ~table:"order_line" in
  for _ = 1 to 10 do
    Tpcc.new_order drv
  done;
  check_int "ten orders" (orders0 + 10) (Database.row_count db ~table:"orders");
  check "order lines grew" true (Database.row_count db ~table:"order_line" > lines0);
  check "still consistent" true (Tpcc.consistency_check db cfg = Ok ())

let test_payment_effects () =
  let _, db, drv = mk () in
  for _ = 1 to 10 do
    Tpcc.payment drv
  done;
  (* Money conservation: sum of warehouse ytd equals sum of district ytd. *)
  let sum table idx =
    let total = ref 0L in
    Database.scan db ~table ~f:(fun row ->
        match List.nth row idx with
        | Row.Int v -> total := Int64.add !total v
        | Row.Text _ -> ());
    !total
  in
  check "w_ytd = sum d_ytd" true (sum "warehouse" 1 = sum "district" 2);
  check "ytd positive" true (sum "warehouse" 1 > 0L)

let test_mix_and_tpmc () =
  let eng, db, drv = mk () in
  let t0 = Engine.now_us eng in
  let stats = Tpcc.run_mix drv ~txns:300 in
  let elapsed = Engine.now_us eng -. t0 in
  check_int "all txns ran" 300
    (stats.Tpcc.new_orders + stats.Tpcc.payments + stats.Tpcc.order_statuses
   + stats.Tpcc.stock_levels);
  check "mix roughly 45% new-order" true
    (stats.Tpcc.new_orders > 90 && stats.Tpcc.new_orders < 190);
  check "tpmc positive" true (Tpcc.tpmc stats ~elapsed_us:elapsed > 0.0);
  check "consistent after mix" true (Tpcc.consistency_check db cfg = Ok ())

let test_stock_level_query () =
  let _, db, drv = mk () in
  for _ = 1 to 30 do
    Tpcc.new_order drv
  done;
  let n = Tpcc.stock_level db cfg ~w:1 ~d:1 ~threshold:101 in
  (* Threshold above max quantity: every distinct recent item counts. *)
  check "stock level counts items" true (n > 0);
  check_int "threshold 0 counts nothing" 0 (Tpcc.stock_level db cfg ~w:1 ~d:1 ~threshold:0);
  (* The seen-item bitmap covers [1 .. items]: an order line naming an
     item past it is refused, not counted. *)
  match Tpcc.stock_level db { cfg with Tpcc.items = 0 } ~w:1 ~d:1 ~threshold:101 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an item outside the config's range must be refused"

(* --- in-place column reads against full-row references --- *)

(* The transactions that read INT columns in place (Database.get_ints,
   Database.range_ints) against references that build every row
   (Database.get, Database.range): the code below is theirs, drawing from
   a random stream seeded as the workload handle's.  Twin databases with equal histories run one side each, so
   every answer, every modeled charge (clock, pool hits and misses) and
   the final contents must agree, on the primary and on as-of views. *)
module Prng = Rw_storage.Prng
module Buffer_pool = Rw_buffer.Buffer_pool

let district_key ~w ~d = Int64.of_int ((w * 100) + d)
let customer_key ~w ~d ~c = Int64.of_int ((((w * 100) + d) * 100_000) + c)
let stock_key ~w ~i = Int64.of_int ((w * 1_000_000) + i)
let order_key ~w ~d ~o = Int64.of_int ((((w * 100) + d) * 10_000_000) + o)

let order_line_key ~w ~d ~o ~ol =
  Int64.add (Int64.mul (order_key ~w ~d ~o) 16L) (Int64.of_int ol)

let get_int row i =
  match List.nth row i with
  | Row.Int v -> Int64.to_int v
  | Row.Text _ -> Alcotest.fail "expected INT column"

let get_exn db ~table ~key =
  match Database.get db ~table ~key with
  | Some row -> row
  | None -> Alcotest.failf "missing row %Ld in %s" key table

let ref_stock_level db ~w ~d ~threshold =
  let next_o = get_int (get_exn db ~table:"district" ~key:(district_key ~w ~d)) 1 in
  let first_o = max 1 (next_o - 20) in
  let low = ref 0 and seen = Hashtbl.create 64 in
  if next_o > first_o then
    Database.range db ~table:"order_line"
      ~lo:(order_line_key ~w ~d ~o:first_o ~ol:0)
      ~hi:(order_line_key ~w ~d ~o:(next_o - 1) ~ol:15)
      ~f:(fun row ->
        let i = get_int row 1 in
        if not (Hashtbl.mem seen i) then begin
          Hashtbl.add seen i ();
          if get_int (get_exn db ~table:"stock" ~key:(stock_key ~w ~i)) 1 < threshold then incr low
        end);
  !low

let ref_new_order db rng =
  let pick_item () = Prng.non_uniform rng ~a:255 ~x:1 ~y:cfg.Tpcc.items in
  let pick_customer () = Prng.non_uniform rng ~a:63 ~x:1 ~y:cfg.Tpcc.customers in
  let w = Prng.int_in rng 1 cfg.Tpcc.warehouses and d = Prng.int_in rng 1 cfg.Tpcc.districts in
  let c = pick_customer () in
  let ol_cnt = Prng.int_in rng 5 15 in
  Database.with_txn db (fun txn ->
      let dkey = district_key ~w ~d in
      let drow = get_exn db ~table:"district" ~key:dkey in
      let o = get_int drow 1 in
      Database.update db txn ~table:"district"
        [ Row.Int dkey; Row.Int (Int64.of_int (o + 1)); Row.Int (Int64.of_int (get_int drow 2)) ];
      Database.insert db txn ~table:"orders"
        [ Row.Int (order_key ~w ~d ~o); Row.Int (Int64.of_int c); Row.Int (Int64.of_int ol_cnt) ];
      for ol = 1 to ol_cnt do
        let i = pick_item () in
        let price = get_int (get_exn db ~table:"item" ~key:(Int64.of_int i)) 1 in
        let qty = Prng.int_in rng 1 10 in
        let skey = stock_key ~w ~i in
        let srow = get_exn db ~table:"stock" ~key:skey in
        let s_qty = get_int srow 1 and s_ytd = get_int srow 2 and s_cnt = get_int srow 3 in
        let s_qty' = if s_qty - qty >= 10 then s_qty - qty else s_qty - qty + 91 in
        Database.update db txn ~table:"stock"
          [
            Row.Int skey;
            Row.Int (Int64.of_int s_qty');
            Row.Int (Int64.of_int (s_ytd + qty));
            Row.Int (Int64.of_int (s_cnt + 1));
          ];
        Database.insert db txn ~table:"order_line"
          [
            Row.Int (order_line_key ~w ~d ~o ~ol);
            Row.Int (Int64.of_int i);
            Row.Int (Int64.of_int qty);
            Row.Int (Int64.of_int (price * qty));
          ]
      done)

let ref_order_status db rng =
  let w = Prng.int_in rng 1 cfg.Tpcc.warehouses and d = Prng.int_in rng 1 cfg.Tpcc.districts in
  let c = Prng.non_uniform rng ~a:63 ~x:1 ~y:cfg.Tpcc.customers in
  ignore (Database.get db ~table:"customer" ~key:(customer_key ~w ~d ~c));
  let dkey = district_key ~w ~d in
  match Database.get db ~table:"district" ~key:dkey with
  | Some drow ->
      let next_o = get_int drow 1 in
      if next_o > 1 then
        ignore (Database.get db ~table:"orders" ~key:(order_key ~w ~d ~o:(next_o - 1)))
  | None -> ()

(* What [f] returned on [db] and what it was charged. *)
let charged eng db f =
  let us = Engine.now_us eng and pool = Database.pool db in
  let hits = Buffer_pool.hits pool and misses = Buffer_pool.misses pool in
  let v = f () in
  (v, Engine.now_us eng -. us, Buffer_pool.hits pool - hits, Buffer_pool.misses pool - misses)

let contents db =
  List.map
    (fun table ->
      let rows = ref [] in
      Database.scan db ~table ~f:(fun r -> rows := r :: !rows);
      !rows)
    [ "warehouse"; "district"; "customer"; "item"; "stock"; "orders"; "order_line" ]

let test_in_place_reads_match_full_rows () =
  let eng_a, a, drv = mk () and eng_b, b, _ = mk () in
  let rng = Prng.create (cfg.Tpcc.seed + 1) in
  let same what (a, fa) (b, fb) = check what true (charged eng_a a fa = charged eng_b b fb) in
  let all_stock_levels ~threshold a b =
    for w = 1 to cfg.Tpcc.warehouses do
      for d = 1 to cfg.Tpcc.districts do
        same
          (Printf.sprintf "stock level (%d,%d) < %d" w d threshold)
          (a, fun () -> Tpcc.stock_level a cfg ~w ~d ~threshold)
          (b, fun () -> ref_stock_level b ~w ~d ~threshold)
      done
    done
  in
  for round = 1 to 12 do
    same (Printf.sprintf "new order %d" round)
      (a, fun () -> Tpcc.new_order drv)
      (b, fun () -> ref_new_order b rng);
    same (Printf.sprintf "order status %d" round)
      (a, fun () -> Tpcc.order_status drv)
      (b, fun () -> ref_order_status b rng);
    if round mod 4 = 0 then
      List.iter (fun eng -> Sim_clock.advance_us (Engine.clock eng) 1_000_000.0) [ eng_a; eng_b ]
  done;
  List.iter (fun threshold -> all_stock_levels ~threshold a b) [ 15; 101 ];
  check "same contents" true (contents a = contents b);
  let t_mid = Engine.now_us eng_a -. 1_500_000.0 in
  let va = Database.create_as_of_snapshot a ~name:"mid" ~wall_us:t_mid in
  let vb = Database.create_as_of_snapshot b ~name:"mid" ~wall_us:t_mid in
  List.iter (fun threshold -> all_stock_levels ~threshold va vb) [ 15; 101 ];
  check "same contents as of mid" true (contents va = contents vb);
  check "the view is in the past" true (contents va <> contents a)

let test_snapshot_consistency_under_load () =
  let eng, db, drv = mk () in
  let clock = Engine.clock eng in
  ignore (Tpcc.run_mix drv ~txns:150);
  Sim_clock.advance_us clock 1_000_000.0;
  let t_mid = Engine.now_us eng in
  let mid_orders = Database.row_count db ~table:"orders" in
  ignore (Tpcc.run_mix drv ~txns:150);
  let snap = Database.create_as_of_snapshot db ~name:"mid" ~wall_us:t_mid in
  (* The snapshot view satisfies all cross-table invariants... *)
  check "snapshot consistent" true (Tpcc.consistency_check snap cfg = Ok ());
  (* ...and reflects exactly the mid-point state. *)
  check_int "orders as of mid" mid_orders (Database.row_count snap ~table:"orders");
  check "primary moved on" true (Database.row_count db ~table:"orders" > mid_orders);
  (* The as-of stock-level query works against the snapshot. *)
  ignore (Tpcc.stock_level snap cfg ~w:1 ~d:1 ~threshold:15)

let test_crash_recovery_under_load () =
  let _, db, drv = mk () in
  ignore (Tpcc.run_mix drv ~txns:200);
  let orders = Database.row_count db ~table:"orders" in
  let db = Database.crash_and_reopen db in
  check_int "orders survive" orders (Database.row_count db ~table:"orders");
  check "consistent after recovery" true (Tpcc.consistency_check db cfg = Ok ())

let test_determinism () =
  let run () =
    let _, db, drv = mk () in
    ignore (Tpcc.run_mix drv ~txns:100);
    let acc = ref [] in
    Database.scan db ~table:"orders" ~f:(fun row -> acc := row :: !acc);
    !acc
  in
  check "same seed, same orders" true (run () = run ())

(* --- the twin harness's page check compares real pages --- *)

(* Two engines that ran the same seeded history have equal pages, LSNs
   included; changing one row on one of them must show up as a differing
   page whether or not page LSNs are masked, and every comparison
   snapshot must be dropped again. *)
let test_twin_page_check () =
  let run () =
    let _, db, drv = mk () in
    ignore (Tpcc.run_mix drv ~txns:40);
    db
  in
  let a = run () and b = run () in
  let live () = Metrics.gauge_value Probes.snapshots_live in
  let live0 = live () in
  let compared, differing = Twin.page_diff ~mask_lsn:false (Twin.now a) (Twin.now b) in
  check "pages were compared" true (compared > 0);
  check_int "same history, same pages" 0 differing;
  let row = Option.get (Database.get b ~table:"warehouse" ~key:1L) in
  let diverged = List.mapi (fun i v -> if i = 1 then Row.Int 123_456_789L else v) row in
  Database.with_txn b (fun txn -> Database.update b txn ~table:"warehouse" diverged);
  check "rows diverge" true (Twin.dump a <> Twin.dump b);
  List.iter
    (fun mask_lsn ->
      let compared', differing = Twin.page_diff ~mask_lsn (Twin.now a) (Twin.now b) in
      check_int "same pages compared" compared compared';
      check "the diverged row's page differs" true (differing > 0))
    [ false; true ];
  check "comparison snapshots dropped" true (live () = live0)

(* --- the experiment table --- *)

(* bench/main.exe looks its arguments up in the table by name: every name
   must be unique and find its own runner, and a name the table lacks
   (including the two bench handles itself, [all] and [micro]) must find
   nothing. *)
let test_experiment_table () =
  let find name = List.assoc_opt name Experiments.all in
  let names = List.map fst Experiments.all in
  check_int "names are unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, run) ->
      check (name ^ " resolves to its own entry") true
        (match find name with Some r -> r == run | None -> false))
    Experiments.all;
  List.iter
    (fun name -> check (Printf.sprintf "%S is refused" name) true (find name = None))
    [ ""; "fig12"; "FIG5"; "fig5 "; "all"; "micro" ]

let () =
  Alcotest.run "workload"
    [
      ( "tpcc",
        [
          Alcotest.test_case "load population" `Quick test_load_population;
          Alcotest.test_case "new order" `Quick test_new_order_effects;
          Alcotest.test_case "payment conservation" `Quick test_payment_effects;
          Alcotest.test_case "mix and tpmc" `Quick test_mix_and_tpmc;
          Alcotest.test_case "stock level" `Quick test_stock_level_query;
          Alcotest.test_case "in-place reads match full rows" `Quick
            test_in_place_reads_match_full_rows;
          Alcotest.test_case "snapshot consistency" `Quick test_snapshot_consistency_under_load;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery_under_load;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "twin",
        [ Alcotest.test_case "page check sees one diverged row" `Quick test_twin_page_check ] );
      ( "experiments",
        [ Alcotest.test_case "names resolve to their entries" `Quick test_experiment_table ] );
    ]
