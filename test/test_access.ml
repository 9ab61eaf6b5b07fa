(* Access-method tests: boot page, allocation map (first-alloc vs re-alloc,
   preformat logging), B-tree (model-based), heap. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Disk = Rw_storage.Disk
module Prng = Rw_storage.Prng
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Lock_manager = Rw_txn.Lock_manager
module Txn_manager = Rw_txn.Txn_manager
module Access_ctx = Rw_access.Access_ctx
module Alloc_map = Rw_access.Alloc_map
module Boot = Rw_access.Boot
module Btree = Rw_access.Btree
module Heap = Rw_access.Heap
module Rowfmt = Rw_access.Rowfmt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

type env = {
  clock : Sim_clock.t;
  log : Log_manager.t;
  txns : Txn_manager.t;
  ctx : Access_ctx.t;
  alloc : Alloc_map.t;
}

(* A fully bootstrapped environment: boot page + allocation map, as the
   engine sets them up. *)
let mk_env () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let log = Log_manager.create ~clock ~media:Media.ram () in
  let pool =
    Buffer_pool.create ~capacity:128 ~source:(Buffer_pool.of_disk disk)
      ~wal_flush:(fun lsn -> Log_manager.flush log ~upto:lsn)
      ()
  in
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let ctx = Access_ctx.create ~pool ~txns ~log ~clock () in
  let txn = Txn_manager.begin_txn txns in
  Boot.init ctx txn;
  Boot.set ctx txn Boot.key_next_page_id 2L;
  Alloc_map.init ctx txn;
  let alloc = Alloc_map.open_ ctx in
  Txn_manager.commit txns txn ~wall_us:0.0;
  Txn_manager.finished txns txn;
  { clock; log; txns; ctx; alloc }

let with_txn env f =
  let txn = Txn_manager.begin_txn env.txns in
  let v = f txn in
  Txn_manager.commit env.txns txn ~wall_us:(Sim_clock.now_us env.clock);
  Txn_manager.finished env.txns txn;
  v

(* --- boot --- *)

let test_boot_settings () =
  let env = mk_env () in
  check "next page id" true (Boot.get_exn env.ctx Boot.key_next_page_id = 2L);
  with_txn env (fun txn -> Boot.set env.ctx txn 77L 123L);
  check "insert new setting" true (Boot.get_exn env.ctx 77L = 123L);
  with_txn env (fun txn -> Boot.set env.ctx txn 77L 124L);
  check "update setting" true (Boot.get_exn env.ctx 77L = 124L);
  check "missing" true
    (match Boot.get_exn env.ctx 999L with _ -> false | exception Invalid_argument _ -> true)

(* --- alloc map --- *)

let test_alloc_fresh_pages () =
  let env = mk_env () in
  let p1, p2 =
    with_txn env (fun txn ->
        let p1 = Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Btree ~level:0 in
        let p2 = Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0 in
        (p1, p2))
  in
  check "distinct fresh pages" true (not (Page_id.equal p1 p2));
  check "allocated" true (Alloc_map.is_allocated env.ctx p1);
  check "ever allocated" true (Alloc_map.ever_allocated env.ctx p1);
  check_int "fresh ids from 2" 2 (Page_id.to_int p1)

let count_records env ~kind =
  let n = ref 0 in
  Log_manager.iter_range_peek env.log ~from:(Log_manager.first_lsn env.log)
    ~upto:(Log_manager.end_lsn env.log) (fun _ _ decode ->
      if Log_record.kind_name (decode ()) = kind then incr n);
  !n

let test_realloc_logs_preformat () =
  let env = mk_env () in
  let p1 = with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Btree ~level:0) in
  check_int "first allocation: no preformat" 0 (count_records env ~kind:"preformat");
  with_txn env (fun txn -> Alloc_map.free env.alloc env.ctx txn p1);
  check "freed" false (Alloc_map.is_allocated env.ctx p1);
  check "but ever-allocated" true (Alloc_map.ever_allocated env.ctx p1);
  let p2 = with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0) in
  check "re-uses the freed page" true (Page_id.equal p1 p2);
  check_int "re-allocation logs exactly one preformat" 1 (count_records env ~kind:"preformat")

let test_alloc_map_grows () =
  let env = mk_env () in
  (* Allocate enough pages to overflow the first 8KiB map page. *)
  let pids =
    with_txn env (fun txn ->
        List.init 700 (fun _ -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0))
  in
  check_int "700 distinct pages" 700 (List.length (List.sort_uniq Page_id.compare pids));
  List.iter (fun p -> check "all allocated" true (Alloc_map.is_allocated env.ctx p)) pids;
  let listed = Alloc_map.allocated_pages env.ctx in
  check "listing includes all" true
    (List.for_all (fun p -> List.exists (Page_id.equal p) listed) pids)

let test_free_list_rebuild () =
  let env = mk_env () in
  let p1 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  with_txn env (fun txn -> Alloc_map.free env.alloc env.ctx txn p1);
  let reopened = Alloc_map.open_ env.ctx in
  check_int "free list found on reopen" 1 (Alloc_map.free_count reopened)

(* A free that is rolled back leaves the page live: the next allocation
   must not hand it out again (it used to, overwriting the live page). *)
let test_rolled_back_free () =
  let env = mk_env () in
  let p1 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  let txn = Txn_manager.begin_txn env.txns in
  Alloc_map.free env.alloc env.ctx txn p1;
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx);
  check "live again" true (Alloc_map.is_allocated env.ctx p1);
  let p2 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  check "a fresh page, not the live one" false (Page_id.equal p1 p2);
  check "both allocated" true (Alloc_map.is_allocated env.ctx p1 && Alloc_map.is_allocated env.ctx p2)

(* A re-allocation that is rolled back leaves the page free: the next
   allocation must take it again, not a fresh page id (it used to leak the
   page until the database was reopened). *)
let test_rolled_back_realloc () =
  let env = mk_env () in
  let p1 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  with_txn env (fun txn -> Alloc_map.free env.alloc env.ctx txn p1);
  let txn = Txn_manager.begin_txn env.txns in
  let again = Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0 in
  check "re-allocated the freed page" true (Page_id.equal p1 again);
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx);
  check "free again" false (Alloc_map.is_allocated env.ctx p1);
  check_int "free count equals a reopened handle's"
    (Alloc_map.free_count (Alloc_map.open_ env.ctx))
    (Alloc_map.free_count env.alloc);
  let p2 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  check "the rolled-back page is reused" true (Page_id.equal p1 p2)

(* A re-allocation still in flight when another transaction allocates:
   that allocation finds the page's row allocated and must not forget the
   page, or the re-allocation's rollback leaves it free but unlisted until
   the database is reopened. *)
let test_rolled_back_realloc_behind_other () =
  let env = mk_env () in
  let p1 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  with_txn env (fun txn -> Alloc_map.free env.alloc env.ctx txn p1);
  let a = Txn_manager.begin_txn env.txns in
  let again = Alloc_map.allocate env.alloc env.ctx a ~typ:Page.Heap ~level:0 in
  check "A re-allocated the freed page" true (Page_id.equal p1 again);
  let other =
    with_txn env (fun b -> Alloc_map.allocate env.alloc env.ctx b ~typ:Page.Heap ~level:0)
  in
  check "B took another page" false (Page_id.equal p1 other);
  Txn_manager.rollback env.txns a ~write_page:(Access_ctx.page_writer env.ctx);
  check "free again" false (Alloc_map.is_allocated env.ctx p1);
  check_int "free count equals a reopened handle's"
    (Alloc_map.free_count (Alloc_map.open_ env.ctx))
    (Alloc_map.free_count env.alloc);
  let p2 =
    with_txn env (fun txn -> Alloc_map.allocate env.alloc env.ctx txn ~typ:Page.Heap ~level:0)
  in
  check "the rolled-back page is reused" true (Page_id.equal p1 p2)

(* --- btree --- *)

let test_btree_basic () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  with_txn env (fun txn ->
      Btree.insert env.ctx env.alloc txn tree ~key:2L ~payload:"two";
      Btree.insert env.ctx env.alloc txn tree ~key:1L ~payload:"one";
      Btree.insert env.ctx env.alloc txn tree ~key:3L ~payload:"three");
  check "find" true (Btree.find env.ctx tree 2L = Some "two");
  check "missing" true (Btree.find env.ctx tree 9L = None);
  check_int "count" 3 (Btree.count env.ctx tree);
  with_txn env (fun txn -> Btree.delete env.ctx txn tree ~key:2L);
  check "deleted" true (Btree.find env.ctx tree 2L = None);
  with_txn env (fun txn -> Btree.update env.ctx env.alloc txn tree ~key:1L ~payload:"ONE");
  check "updated" true (Btree.find env.ctx tree 1L = Some "ONE");
  Btree.check env.ctx tree

let test_btree_duplicate () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  with_txn env (fun txn -> Btree.insert env.ctx env.alloc txn tree ~key:1L ~payload:"a");
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "duplicate" (Btree.Duplicate_key 1L) (fun () ->
      Btree.insert env.ctx env.alloc txn tree ~key:1L ~payload:"b");
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_btree_split_and_height () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  let payload = String.make 200 'p' in
  with_txn env (fun txn ->
      for i = 1 to 500 do
        Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int i) ~payload
      done);
  check "grew beyond one level" true (Btree.height env.ctx tree > 1);
  check_int "all rows present" 500 (Btree.count env.ctx tree);
  Btree.check env.ctx tree;
  (* Every key individually findable. *)
  for i = 1 to 500 do
    if Btree.find env.ctx tree (Int64.of_int i) = None then
      Alcotest.failf "key %d missing after splits" i
  done

let test_btree_range () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  with_txn env (fun txn ->
      List.iter
        (fun i -> Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int i) ~payload:"v")
        [ 1; 3; 5; 7; 9; 11 ]);
  let seen = ref [] in
  Btree.range env.ctx tree ~lo:3L ~hi:9L
    ~row:(fun k _ ~pos:_ ~len:_ -> k)
    ~f:(fun k -> seen := k :: !seen);
  check "range [3,9]" true (List.rev !seen = [ 3L; 5L; 7L; 9L ])

(* Btree.range against a filter of Btree.to_list, on multi-leaf trees
   with random deletes (leaves may empty out) and random bounds, [lo > hi]
   and the int64 extremes included. *)
let btree_range_test =
  let bound = QCheck.Gen.(frequency [ (8, int_range (-3500) 3500); (1, return min_int); (1, return max_int) ]) in
  QCheck.Test.make ~name:"btree range equals a filter of to_list" ~count:25
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) (list int) (list (pair int int)))
       QCheck.Gen.(
         triple
           (list_size (80 -- 300) (int_range (-3000) 3000))
           (list_size (0 -- 150) (int_range (-3000) 3000))
           (list_size (1 -- 25) (pair bound bound))))
    (fun (keys, deletes, bounds) ->
      let env = mk_env () in
      let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
      let keys = List.sort_uniq compare keys in
      with_txn env (fun txn ->
          List.iter
            (fun k ->
              Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int k)
                ~payload:(String.make (100 + (abs k mod 200)) 'r'))
            keys;
          List.iter
            (fun k -> if List.mem k keys then Btree.delete env.ctx txn tree ~key:(Int64.of_int k))
            (List.sort_uniq compare deletes));
      let all = Btree.to_list env.ctx tree in
      let to_key i =
        if i = min_int then Int64.min_int else if i = max_int then Int64.max_int else Int64.of_int i
      in
      Btree.height env.ctx tree > 1
      && List.for_all
           (fun (lo, hi) ->
             let lo = to_key lo and hi = to_key hi in
             let got = ref [] in
             Btree.range env.ctx tree ~lo ~hi
               ~row:(fun k page ~pos ~len -> (k, Bytes.sub_string page pos len))
               ~f:(fun kv -> got := kv :: !got);
             List.rev !got = List.filter (fun (k, _) -> k >= lo && k <= hi) all)
           bounds)

(* A warm point lookup's minor-heap allocation on a two-level tree, in
   the dev profile the tests build: the descent and the leaf search read
   and compare keys where they sit, and the descent keeps no path, so
   what is left is the payload copy, the result and the per-page read
   closures.  31.0 words per find; 75.0 while the descent built its
   ancestor list and an option per level, 134.8 when every key, child
   and page LSN came back as a boxed int64. *)
let test_btree_find_allocation () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  with_txn env (fun txn ->
      for i = 1 to 600 do
        Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int (i * 7)) ~payload:(String.make 40 'p')
      done);
  check "two levels" true (Btree.height env.ctx tree = 2);
  let keys = Array.init 200 (fun i -> Int64.of_int (((i * 37) mod 600 + 1) * 7)) in
  Array.iter (fun k -> ignore (Btree.find env.ctx tree k)) keys;
  let before = Gc.minor_words () in
  Array.iter (fun k -> ignore (Btree.find env.ctx tree k)) keys;
  let per_find = (Gc.minor_words () -. before) /. float_of_int (Array.length keys) in
  if per_find > 40. then Alcotest.failf "%.1f minor words per warm Btree.find, above 40" per_find

let test_btree_drop_frees_pages () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  let payload = String.make 300 'p' in
  with_txn env (fun txn ->
      for i = 1 to 300 do
        Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int i) ~payload
      done);
  let pages = Btree.pages env.ctx tree in
  check "multi-page tree" true (List.length pages > 3);
  with_txn env (fun txn -> Btree.drop env.ctx env.alloc txn tree);
  List.iter (fun p -> check "page freed" false (Alloc_map.is_allocated env.ctx p)) pages;
  (* A new tree reuses the freed pages (preformat path). *)
  let tree2 = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  check "root reused from free list" true (List.exists (Page_id.equal (Btree.root tree2)) pages)

(* Model-based test: random operations against a Map. *)
let btree_model_test =
  QCheck.Test.make ~name:"btree models an int64 map" ~count:30
    QCheck.(small_list (pair (int_bound 2) (int_bound 400)))
    (fun ops ->
      let env = mk_env () in
      let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, k) ->
          let key = Int64.of_int k in
          let payload = Printf.sprintf "value-%d" k in
          with_txn env (fun txn ->
              match op with
              | 0 ->
                  if not (Hashtbl.mem model k) then begin
                    Btree.insert env.ctx env.alloc txn tree ~key ~payload;
                    Hashtbl.replace model k payload
                  end
              | 1 ->
                  if Hashtbl.mem model k then begin
                    Btree.delete env.ctx txn tree ~key;
                    Hashtbl.remove model k
                  end
              | _ ->
                  if Hashtbl.mem model k then begin
                    let p = payload ^ "-updated" in
                    Btree.update env.ctx env.alloc txn tree ~key ~payload:p;
                    Hashtbl.replace model k p
                  end))
        ops;
      Btree.check env.ctx tree;
      let actual = Btree.to_list env.ctx tree in
      let expected =
        Hashtbl.fold (fun k v acc -> (Int64.of_int k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
      in
      actual = expected)

(* Heavier randomized torture: interleaved inserts/deletes with varying
   payload sizes, checked against a map. *)
let test_btree_torture () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  let rng = Prng.create 2024 in
  let model = Hashtbl.create 1024 in
  for round = 1 to 2000 do
    let k = Prng.int rng 1000 in
    let key = Int64.of_int k in
    with_txn env (fun txn ->
        if Prng.int rng 100 < 70 then begin
          let payload = Prng.alpha_string rng (1 + Prng.int rng 400) in
          if Hashtbl.mem model k then begin
            Btree.update env.ctx env.alloc txn tree ~key ~payload;
            Hashtbl.replace model k payload
          end
          else begin
            Btree.insert env.ctx env.alloc txn tree ~key ~payload;
            Hashtbl.replace model k payload
          end
        end
        else if Hashtbl.mem model k then begin
          Btree.delete env.ctx txn tree ~key;
          Hashtbl.remove model k
        end);
    if round mod 500 = 0 then Btree.check env.ctx tree
  done;
  check_int "final count" (Hashtbl.length model) (Btree.count env.ctx tree);
  Hashtbl.iter
    (fun k v ->
      match Btree.find env.ctx tree (Int64.of_int k) with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "key %d mismatch" k)
    model

let test_btree_key_extremes () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  let keys = [ Int64.min_int |> Int64.succ; -1L; 0L; 1L; Int64.max_int ] in
  with_txn env (fun txn ->
      List.iter (fun k -> Btree.insert env.ctx env.alloc txn tree ~key:k ~payload:"x") keys);
  List.iter (fun k -> check "extreme key findable" true (Btree.find env.ctx tree k = Some "x")) keys;
  check "keys in order" true (List.map fst (Btree.to_list env.ctx tree) = List.sort compare keys);
  Btree.check env.ctx tree;
  (* The sentinel key itself is reserved. *)
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "min_int reserved"
    (Invalid_argument "Btree.insert: Int64.min_int is reserved") (fun () ->
      Btree.insert env.ctx env.alloc txn tree ~key:Int64.min_int ~payload:"no");
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

let test_btree_payload_bounds () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  with_txn env (fun txn ->
      Btree.insert env.ctx env.alloc txn tree ~key:1L ~payload:"";
      Btree.insert env.ctx env.alloc txn tree ~key:2L
        ~payload:(String.make Btree.max_payload 'm'));
  check "empty payload ok" true (Btree.find env.ctx tree 1L = Some "");
  check "max payload ok" true
    (Btree.find env.ctx tree 2L = Some (String.make Btree.max_payload 'm'));
  let txn = Txn_manager.begin_txn env.txns in
  Alcotest.check_raises "oversized rejected"
    (Invalid_argument "Btree.insert: payload too large") (fun () ->
      Btree.insert env.ctx env.alloc txn tree ~key:3L
        ~payload:(String.make (Btree.max_payload + 1) 'm'));
  Txn_manager.rollback env.txns txn ~write_page:(Access_ctx.page_writer env.ctx)

(* Sustained max-size payloads force splits on nearly every insert. *)
let test_btree_large_payload_splits () =
  let env = mk_env () in
  let tree = with_txn env (fun txn -> Btree.create env.ctx env.alloc txn) in
  let payload = String.make Btree.max_payload 'p' in
  with_txn env (fun txn ->
      for i = 1 to 60 do
        Btree.insert env.ctx env.alloc txn tree ~key:(Int64.of_int i) ~payload
      done);
  Btree.check env.ctx tree;
  check_int "all present" 60 (Btree.count env.ctx tree)

(* --- heap --- *)

let test_heap_basic () =
  let env = mk_env () in
  let heap = with_txn env (fun txn -> Heap.create env.ctx env.alloc txn) in
  let r1, r2 =
    with_txn env (fun txn ->
        ( Heap.insert env.ctx env.alloc txn heap "alpha",
          Heap.insert env.ctx env.alloc txn heap "beta" ))
  in
  check_str "get r1" "alpha" (Heap.get env.ctx heap r1);
  check_str "get r2" "beta" (Heap.get env.ctx heap r2);
  with_txn env (fun txn -> Heap.update env.ctx txn heap r1 "ALPHA");
  check_str "updated" "ALPHA" (Heap.get env.ctx heap r1);
  with_txn env (fun txn -> Heap.delete env.ctx txn heap r1);
  Alcotest.check_raises "deleted rid" Not_found (fun () -> ignore (Heap.get env.ctx heap r1));
  check_int "count skips tombstones" 1 (Heap.count env.ctx heap);
  (* RIDs of surviving rows are stable. *)
  check_str "r2 stable" "beta" (Heap.get env.ctx heap r2)

let test_heap_chains_pages () =
  let env = mk_env () in
  let heap = with_txn env (fun txn -> Heap.create env.ctx env.alloc txn) in
  let row = String.make 900 'h' in
  with_txn env (fun txn ->
      for _ = 1 to 100 do
        ignore (Heap.insert env.ctx env.alloc txn heap row)
      done);
  check "spans multiple pages" true (List.length (Heap.pages env.ctx heap) > 5);
  check_int "all rows visible" 100 (Heap.count env.ctx heap);
  let seen = ref 0 in
  Heap.iter env.ctx heap ~f:(fun _ r -> if r = row then incr seen);
  check_int "iter sees all" 100 !seen

let () =
  Alcotest.run "access"
    [
      ("boot", [ Alcotest.test_case "settings" `Quick test_boot_settings ]);
      ( "alloc_map",
        [
          Alcotest.test_case "fresh allocation" `Quick test_alloc_fresh_pages;
          Alcotest.test_case "realloc logs preformat" `Quick test_realloc_logs_preformat;
          Alcotest.test_case "map chain growth" `Quick test_alloc_map_grows;
          Alcotest.test_case "free list rebuild" `Quick test_free_list_rebuild;
          Alcotest.test_case "rolled-back free not reused" `Quick test_rolled_back_free;
          Alcotest.test_case "rolled-back re-allocation reused" `Quick test_rolled_back_realloc;
          Alcotest.test_case "rolled-back re-allocation behind another allocation" `Quick
            test_rolled_back_realloc_behind_other;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic ops" `Quick test_btree_basic;
          Alcotest.test_case "duplicate key" `Quick test_btree_duplicate;
          Alcotest.test_case "splits and height" `Quick test_btree_split_and_height;
          Alcotest.test_case "range scan" `Quick test_btree_range;
          Alcotest.test_case "drop frees pages" `Quick test_btree_drop_frees_pages;
          QCheck_alcotest.to_alcotest btree_model_test;
          QCheck_alcotest.to_alcotest btree_range_test;
          Alcotest.test_case "warm find allocation" `Quick test_btree_find_allocation;
          Alcotest.test_case "key extremes" `Quick test_btree_key_extremes;
          Alcotest.test_case "payload bounds" `Quick test_btree_payload_bounds;
          Alcotest.test_case "large payload splits" `Quick test_btree_large_payload_splits;
          Alcotest.test_case "torture" `Slow test_btree_torture;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic ops" `Quick test_heap_basic;
          Alcotest.test_case "page chaining" `Quick test_heap_chains_pages;
        ] );
    ]
