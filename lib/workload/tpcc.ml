module Prng = Rw_storage.Prng
module Schema = Rw_catalog.Schema
module Database = Rw_engine.Database
module Row = Rw_engine.Row

type config = {
  warehouses : int;
  districts : int;
  customers : int;
  items : int;
  initial_orders : int;
  seed : int;
}

let default_config =
  { warehouses = 4; districts = 10; customers = 30; items = 500; initial_orders = 15; seed = 42 }

let small_config =
  { warehouses = 2; districts = 2; customers = 5; items = 50; initial_orders = 2; seed = 7 }

(* Key packing; ranges are bounded by construction (d < 100, c < 100_000,
   i < 1_000_000, o < 10_000_000, ol < 16). *)
let district_key ~w ~d = Int64.of_int ((w * 100) + d)
let customer_key ~w ~d ~c = Int64.of_int ((((w * 100) + d) * 100_000) + c)
let stock_key ~w ~i = Int64.of_int ((w * 1_000_000) + i)
let order_key ~w ~d ~o = Int64.of_int (((((w * 100) + d) * 10_000_000) + o))
let order_line_key ~w ~d ~o ~ol =
  Int64.add (Int64.mul (order_key ~w ~d ~o) 16L) (Int64.of_int ol)

let int_col name = { Schema.name; ctype = Schema.Int }
let text_col name = { Schema.name; ctype = Schema.Text }

let schemas =
  [
    ("warehouse", [ int_col "w_id"; int_col "w_ytd"; text_col "w_name" ]);
    ("district", [ int_col "d_key"; int_col "d_next_o_id"; int_col "d_ytd" ]);
    ("customer", [ int_col "c_key"; int_col "c_balance"; int_col "c_ytd"; text_col "c_data" ]);
    ("item", [ int_col "i_id"; int_col "i_price"; text_col "i_name" ]);
    ("stock", [ int_col "s_key"; int_col "s_quantity"; int_col "s_ytd"; int_col "s_order_cnt" ]);
    ("orders", [ int_col "o_key"; int_col "o_c_id"; int_col "o_ol_cnt" ]);
    ("order_line", [ int_col "ol_key"; int_col "ol_i_id"; int_col "ol_qty"; int_col "ol_amount" ]);
  ]

let load db config =
  let rng = Prng.create config.seed in
  Database.with_txn db (fun txn ->
      List.iter
        (fun (table, columns) -> ignore (Database.create_table db txn ~table ~columns ()))
        schemas);
  Database.with_txn db (fun txn ->
      for i = 1 to config.items do
        Database.insert db txn ~table:"item"
          [
            Row.Int (Int64.of_int i);
            Row.Int (Int64.of_int (100 + Prng.int rng 9900));
            Row.Text (Prng.alpha_string rng 14);
          ]
      done);
  for w = 1 to config.warehouses do
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"warehouse"
          [ Row.Int (Int64.of_int w); Row.Int 0L; Row.Text (Prng.alpha_string rng 8) ];
        for d = 1 to config.districts do
          (* Like TPC-C's initial population, every district starts with a
             history of orders, so point-in-time queries anywhere in the
             retention window find data. *)
          Database.insert db txn ~table:"district"
            [
              Row.Int (district_key ~w ~d);
              Row.Int (Int64.of_int (config.initial_orders + 1));
              Row.Int 0L;
            ];
          for o = 1 to config.initial_orders do
            let ol_cnt = 5 + Prng.int rng 6 in
            Database.insert db txn ~table:"orders"
              [
                Row.Int (order_key ~w ~d ~o);
                Row.Int (Int64.of_int (1 + Prng.int rng config.customers));
                Row.Int (Int64.of_int ol_cnt);
              ];
            for ol = 1 to ol_cnt do
              Database.insert db txn ~table:"order_line"
                [
                  Row.Int (order_line_key ~w ~d ~o ~ol);
                  Row.Int (Int64.of_int (1 + Prng.int rng config.items));
                  Row.Int (Int64.of_int (1 + Prng.int rng 10));
                  Row.Int (Int64.of_int (100 + Prng.int rng 9900));
                ]
            done
          done;
          for c = 1 to config.customers do
            (* Fat customer rows model TPC-C's static bulk: they dominate
               database (and therefore backup/restore) size while being
               touched rarely. *)
            Database.insert db txn ~table:"customer"
              [
                Row.Int (customer_key ~w ~d ~c);
                Row.Int 0L;
                Row.Int 0L;
                Row.Text (Prng.alpha_string rng 200);
              ]
          done
        done);
    Database.with_txn db (fun txn ->
        for i = 1 to config.items do
          Database.insert db txn ~table:"stock"
            [
              Row.Int (stock_key ~w ~i);
              Row.Int (Int64.of_int (10 + Prng.int rng 90));
              Row.Int 0L;
              Row.Int 0L;
            ]
        done)
  done

type t = { db : Database.t; config : config; rng : Prng.t }

let create db config = { db; config; rng = Prng.create (config.seed + 1) }

let get_int row i =
  match List.nth row i with
  | Row.Int v -> Int64.to_int v
  | Row.Text _ -> invalid_arg "Tpcc: expected INT column"

let missing table key = failwith (Printf.sprintf "Tpcc: missing row %Ld in %s" key table)

let get_exn db ~table ~key =
  match Database.get db ~table ~key with Some row -> row | None -> missing table key

(* The INT columns [cols] of the row at [key], read in place. *)
let ints_exn db ~table ~key cols =
  match Database.get_ints db ~table ~key cols with Some v -> v | None -> missing table key

let pick_item t = Prng.non_uniform t.rng ~a:255 ~x:1 ~y:t.config.items
let pick_customer t = Prng.non_uniform t.rng ~a:63 ~x:1 ~y:t.config.customers
let pick_warehouse t = Prng.int_in t.rng 1 t.config.warehouses
let pick_district t = Prng.int_in t.rng 1 t.config.districts

let new_order t =
  let w = pick_warehouse t and d = pick_district t in
  let c = pick_customer t in
  let ol_cnt = Prng.int_in t.rng 5 15 in
  Database.with_txn t.db (fun txn ->
      let dkey = district_key ~w ~d in
      let drow = ints_exn t.db ~table:"district" ~key:dkey [| 1; 2 |] in
      let o = drow.(0) in
      Database.update t.db txn ~table:"district"
        [ Row.Int dkey; Row.Int (Int64.of_int (o + 1)); Row.Int (Int64.of_int drow.(1)) ];
      Database.insert t.db txn ~table:"orders"
        [ Row.Int (order_key ~w ~d ~o); Row.Int (Int64.of_int c); Row.Int (Int64.of_int ol_cnt) ];
      for ol = 1 to ol_cnt do
        let i = pick_item t in
        let price = (ints_exn t.db ~table:"item" ~key:(Int64.of_int i) [| 1 |]).(0) in
        let qty = Prng.int_in t.rng 1 10 in
        let skey = stock_key ~w ~i in
        let srow = ints_exn t.db ~table:"stock" ~key:skey [| 1; 2; 3 |] in
        let s_qty = srow.(0) and s_ytd = srow.(1) and s_cnt = srow.(2) in
        let s_qty' = if s_qty - qty >= 10 then s_qty - qty else s_qty - qty + 91 in
        Database.update t.db txn ~table:"stock"
          [
            Row.Int skey;
            Row.Int (Int64.of_int s_qty');
            Row.Int (Int64.of_int (s_ytd + qty));
            Row.Int (Int64.of_int (s_cnt + 1));
          ];
        Database.insert t.db txn ~table:"order_line"
          [
            Row.Int (order_line_key ~w ~d ~o ~ol);
            Row.Int (Int64.of_int i);
            Row.Int (Int64.of_int qty);
            Row.Int (Int64.of_int (price * qty));
          ]
      done)

let payment t =
  let w = pick_warehouse t and d = pick_district t in
  let c = pick_customer t in
  let amount = Prng.int_in t.rng 1 5000 in
  Database.with_txn t.db (fun txn ->
      let wrow = get_exn t.db ~table:"warehouse" ~key:(Int64.of_int w) in
      let w_name = List.nth wrow 2 in
      Database.update t.db txn ~table:"warehouse"
        [ Row.Int (Int64.of_int w); Row.Int (Int64.of_int (get_int wrow 1 + amount)); w_name ];
      let dkey = district_key ~w ~d in
      let drow = get_exn t.db ~table:"district" ~key:dkey in
      Database.update t.db txn ~table:"district"
        [
          Row.Int dkey;
          Row.Int (Int64.of_int (get_int drow 1));
          Row.Int (Int64.of_int (get_int drow 2 + amount));
        ];
      let ckey = customer_key ~w ~d ~c in
      let crow = get_exn t.db ~table:"customer" ~key:ckey in
      let c_data = List.nth crow 3 in
      Database.update t.db txn ~table:"customer"
        [
          Row.Int ckey;
          Row.Int (Int64.of_int (get_int crow 1 - amount));
          Row.Int (Int64.of_int (get_int crow 2 + amount));
          c_data;
        ])

let order_status t =
  let w = pick_warehouse t and d = pick_district t in
  let c = pick_customer t in
  (* The customer's balance and the district's most recent order, if
     any: its customer and line count. *)
  ignore (Database.get_ints t.db ~table:"customer" ~key:(customer_key ~w ~d ~c) [| 1 |]);
  let dkey = district_key ~w ~d in
  match Database.get_ints t.db ~table:"district" ~key:dkey [| 1 |] with
  | Some [| next_o |] ->
      let okey = order_key ~w ~d ~o:(next_o - 1) in
      if next_o > 1 then ignore (Database.get_ints t.db ~table:"orders" ~key:okey [| 1; 2 |])
  | _ -> ()

(* Each distinct item of the district's last 20 orders is looked up
   once, in the order of its first order line; [seen] is a bitmap over
   the item ids [1 .. config.items]. *)
let stock_level db config ~w ~d ~threshold =
  let next_o = (ints_exn db ~table:"district" ~key:(district_key ~w ~d) [| 1 |]).(0) in
  let first_o = max 1 (next_o - 20) in
  let low = ref 0 in
  let seen = Bytes.make ((config.items + 8) / 8) '\000' in
  if next_o > first_o then
    Database.range_ints db ~table:"order_line"
      ~lo:(order_line_key ~w ~d ~o:first_o ~ol:0)
      ~hi:(order_line_key ~w ~d ~o:(next_o - 1) ~ol:15)
      [| 1 |]
      ~f:(fun ol ->
        let i = ol.(0) in
        if i < 1 || i > config.items then
          invalid_arg (Printf.sprintf "Tpcc.stock_level: item %d outside 1..%d" i config.items);
        let byte = Bytes.get_uint8 seen (i lsr 3) and bit = 1 lsl (i land 7) in
        if byte land bit = 0 then begin
          Bytes.set_uint8 seen (i lsr 3) (byte lor bit);
          if (ints_exn db ~table:"stock" ~key:(stock_key ~w ~i) [| 1 |]).(0) < threshold then
            incr low
        end);
  !low

type mix_stats = {
  mutable new_orders : int;
  mutable payments : int;
  mutable order_statuses : int;
  mutable stock_levels : int;
}

let run_mix t ~txns =
  let stats = { new_orders = 0; payments = 0; order_statuses = 0; stock_levels = 0 } in
  for _ = 1 to txns do
    let roll = Prng.int t.rng 100 in
    if roll < 45 then begin
      new_order t;
      stats.new_orders <- stats.new_orders + 1
    end
    else if roll < 88 then begin
      payment t;
      stats.payments <- stats.payments + 1
    end
    else if roll < 96 then begin
      ignore
        (stock_level t.db t.config ~w:(pick_warehouse t) ~d:(pick_district t) ~threshold:15);
      stats.stock_levels <- stats.stock_levels + 1
    end
    else begin
      order_status t;
      stats.order_statuses <- stats.order_statuses + 1
    end
  done;
  stats

let tpmc stats ~elapsed_us =
  if elapsed_us <= 0.0 then 0.0
  else float_of_int stats.new_orders /. (elapsed_us /. 60_000_000.0)

let consistency_check db config =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (try
     for w = 1 to config.warehouses do
       if Database.get db ~table:"warehouse" ~key:(Int64.of_int w) = None then
         fail "warehouse %d missing" w;
       for i = 1 to config.items do
         if Database.get db ~table:"stock" ~key:(stock_key ~w ~i) = None then
           fail "stock (%d,%d) missing" w i
       done;
       for d = 1 to config.districts do
         match Database.get db ~table:"district" ~key:(district_key ~w ~d) with
         | None -> fail "district (%d,%d) missing" w d
         | Some drow ->
             let next_o = get_int drow 1 in
             for o = 1 to next_o - 1 do
               match Database.get db ~table:"orders" ~key:(order_key ~w ~d ~o) with
               | None -> fail "order (%d,%d,%d) missing" w d o
               | Some orow ->
                   let ol_cnt = get_int orow 2 in
                   for ol = 1 to ol_cnt do
                     if
                       Database.get db ~table:"order_line" ~key:(order_line_key ~w ~d ~o ~ol)
                       = None
                     then fail "order_line (%d,%d,%d,%d) missing" w d o ol
                   done
             done
       done
     done
   with e -> fail "exception: %s" (Printexc.to_string e));
  match !errors with [] -> Ok () | errs -> Error (String.concat "; " (List.rev errs))
