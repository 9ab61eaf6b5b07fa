(* Unit and property tests for the storage substrate: LSNs, pages, slotted
   pages, checksums, the media cost model, the simulated disk and sparse
   files. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Page = Rw_storage.Page
module Slotted_page = Rw_storage.Slotted_page
module Checksum = Rw_storage.Checksum
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Disk = Rw_storage.Disk
module Sparse_file = Rw_storage.Sparse_file
module Prng = Rw_storage.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- LSN --- *)

let test_lsn_order () =
  let a = Lsn.of_int 5 and b = Lsn.of_int 9 in
  check "lt" true Lsn.(a < b);
  check "le" true Lsn.(a <= a);
  check "nil smallest" true Lsn.(Lsn.nil < a);
  check_int "max" 9 (Lsn.to_int (Lsn.max a b));
  check_int "min" 5 (Lsn.to_int (Lsn.min a b));
  check "nil is nil" true (Lsn.is_nil Lsn.nil);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Lsn.of_int: negative") (fun () ->
      ignore (Lsn.of_int (-1)))

let test_page_id () =
  check "nil" true (Page_id.is_nil Page_id.nil);
  check_int "roundtrip" 42 (Page_id.to_int (Page_id.of_int 42));
  check "stored nil roundtrip" true (Page_id.is_nil (Page_id.of_int (Page_id.to_int Page_id.nil)));
  Alcotest.check_raises "below nil rejected" (Invalid_argument "Page_id.of_int: negative") (fun () ->
      ignore (Page_id.of_int (-2)));
  check_int "next" 8 (Page_id.to_int (Page_id.next (Page_id.of_int 7)))

(* --- Page header --- *)

let test_page_header () =
  let p = Page.create ~id:(Page_id.of_int 7) ~typ:Page.Btree in
  check_int "id" 7 (Page_id.to_int (Page.id p));
  check "type" true (Page.typ p = Page.Btree);
  check_int "fresh lsn" 0 (Lsn.to_int (Page.lsn p));
  Page.set_lsn p (Lsn.of_int 123);
  Page.set_level p 3;
  Page.set_prev_page p (Page_id.of_int 1);
  Page.set_next_page p (Page_id.of_int 2);
  Page.set_special p 99L;
  check_int "lsn" 123 (Lsn.to_int (Page.lsn p));
  check_int "level" 3 (Page.level p);
  check_int "prev" 1 (Page_id.to_int (Page.prev_page p));
  check_int "next" 2 (Page_id.to_int (Page.next_page p));
  check "special" true (Page.special p = 99L);
  check_int "data_low starts at page end" Page.page_size (Page.data_low p)

let test_page_checksum () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "hello";
  Page.seal p;
  check "sealed page verifies" true (Page.verify p);
  Bytes.set p 200 'x';
  check "corruption detected" false (Page.verify p);
  let fresh = Page.create ~id:(Page_id.of_int 2) ~typ:Page.Free in
  check "unsealed fresh page verifies" true (Page.verify fresh)

let test_page_format_resets () =
  let p = Page.create ~id:(Page_id.of_int 3) ~typ:Page.Btree in
  Slotted_page.insert p ~at:0 "somedata";
  Page.format p ~id:(Page_id.of_int 3) ~typ:Page.Free;
  check_int "slots cleared" 0 (Slotted_page.count p);
  check "type reset" true (Page.typ p = Page.Free)

(* --- Slotted pages --- *)

let test_slotted_basic () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "bbb";
  Slotted_page.insert p ~at:0 "aaa";
  Slotted_page.insert p ~at:2 "ccc";
  check_int "count" 3 (Slotted_page.count p);
  check_str "slot 0" "aaa" (Slotted_page.get p ~at:0);
  check_str "slot 1" "bbb" (Slotted_page.get p ~at:1);
  check_str "slot 2" "ccc" (Slotted_page.get p ~at:2);
  Slotted_page.delete p ~at:1;
  check_int "count after delete" 2 (Slotted_page.count p);
  check_str "shifted" "ccc" (Slotted_page.get p ~at:1)

let test_slotted_update () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "short";
  Slotted_page.set p ~at:0 "longer-content";
  check_str "grown" "longer-content" (Slotted_page.get p ~at:0);
  Slotted_page.set p ~at:0 "s";
  check_str "shrunk" "s" (Slotted_page.get p ~at:0);
  check "garbage recorded" true (Page.garbage p > 0)

let test_slotted_compaction () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  (* Fill the page, delete every other record, then insert something that
     only fits after compaction. *)
  let row = String.make 512 'x' in
  let n = ref 0 in
  (try
     while true do
       Slotted_page.insert p ~at:!n row;
       incr n
     done
   with Slotted_page.Page_full -> ());
  check "page filled" true (!n > 10);
  let deleted = ref 0 in
  let i = ref (!n - 1) in
  while !i >= 0 do
    Slotted_page.delete p ~at:!i;
    incr deleted;
    i := !i - 2
  done;
  (* Space is fragmented now; a large insert must trigger compaction. *)
  let big = String.make 1024 'y' in
  Slotted_page.insert p ~at:0 big;
  check_str "insert after compaction" big (Slotted_page.get p ~at:0)

let test_slotted_bounds () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
  Alcotest.check_raises "get on empty" (Invalid_argument "Slotted_page: index 0 out of bounds (count 0)")
    (fun () -> ignore (Slotted_page.get p ~at:0));
  Slotted_page.insert p ~at:0 "x";
  Alcotest.check_raises "bad insert index"
    (Invalid_argument "Slotted_page: index 5 out of bounds (count 1)") (fun () ->
      Slotted_page.insert p ~at:5 "y")

let test_slotted_find_key () =
  let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Btree in
  let row k = Rw_access.Rowfmt.leaf_row ~key:k ~payload:"v" in
  List.iteri (fun i k -> Slotted_page.insert p ~at:i (row k)) [ 10L; 20L; 30L; 40L ];
  (match Slotted_page.find_key p 30L with
  | Either.Left i -> check_int "found at" 2 i
  | Either.Right _ -> Alcotest.fail "expected found");
  (match Slotted_page.find_key p 35L with
  | Either.Right i -> check_int "insertion point" 3 i
  | Either.Left _ -> Alcotest.fail "expected not found");
  (match Slotted_page.find_key p 5L with
  | Either.Right i -> check_int "before all" 0 i
  | Either.Left _ -> Alcotest.fail "expected not found");
  match Slotted_page.find_key p 45L with
  | Either.Right i -> check_int "after all" 4 i
  | Either.Left _ -> Alcotest.fail "expected not found"

(* find_key against a linear scan of the same sorted keys, in signed
   int64 order: negative keys and both extremes are drawn often, and an
   empty key list gives an empty page.  A found slot's payload and, on a
   16-byte row, its child come back through the in-place accessors. *)
let find_key_model_test =
  let key =
    QCheck.Gen.(
      frequency
        [
          (1, return Int64.min_int);
          (1, return Int64.max_int);
          (1, return 0L);
          (3, map Int64.of_int (int_range (-40) 40));
          (3, int64);
        ])
  in
  QCheck.Test.make ~name:"find_key matches a linear scan" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list int64) (list int64))
       QCheck.Gen.(pair (list_size (0 -- 120) key) (list_size (1 -- 20) key)))
    (fun (keys, probes) ->
      let keys = Array.of_list (List.sort_uniq Int64.compare keys) in
      let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Btree in
      Array.iteri
        (fun i k ->
          (* even slots hold internal rows (key, child), odd ones leaf rows *)
          let row =
            if i mod 2 = 0 then Rw_access.Rowfmt.internal_row ~key:k ~child:(Page_id.of_int i)
            else Rw_access.Rowfmt.leaf_row ~key:k ~payload:(string_of_int i)
          in
          Slotted_page.insert p ~at:i row)
        keys;
      let linear k =
        let rec go i =
          if i = Array.length keys || Int64.compare keys.(i) k > 0 then Either.Right i
          else if Int64.equal keys.(i) k then Either.Left i
          else go (i + 1)
        in
        go 0
      in
      List.for_all
        (fun k ->
          let found = Slotted_page.find_key p k in
          found = linear k
          &&
          match found with
          | Either.Left i when i mod 2 = 0 -> Page_id.to_int (Slotted_page.child_at p ~at:i) = i
          | Either.Left i ->
              Slotted_page.payload_at p ~at:i = string_of_int i
              && Slotted_page.key_at p ~at:i = k
          | Either.Right _ -> true)
        (probes @ Array.to_list keys))

(* Model-based property test: a slotted page behaves like a list of
   strings under insert/delete/set at random positions. *)
let slotted_model_test =
  QCheck.Test.make ~name:"slotted page models a string list" ~count:200
    QCheck.(small_list (pair small_nat (string_of_size Gen.(0 -- 40))))
    (fun ops ->
      let p = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
      let model = ref [] in
      List.iter
        (fun (pos, s) ->
          let n = List.length !model in
          let choice = pos mod 3 in
          if choice = 0 || n = 0 then begin
            let at = if n = 0 then 0 else pos mod (n + 1) in
            match Slotted_page.insert p ~at s with
            | () ->
                model := List.filteri (fun i _ -> i < at) !model @ [ s ]
                         @ List.filteri (fun i _ -> i >= at) !model
            | exception Slotted_page.Page_full -> ()
          end
          else if choice = 1 then begin
            let at = pos mod n in
            Slotted_page.delete p ~at;
            model := List.filteri (fun i _ -> i <> at) !model
          end
          else begin
            let at = pos mod n in
            match Slotted_page.set p ~at s with
            | () -> model := List.mapi (fun i old -> if i = at then s else old) !model
            | exception Slotted_page.Page_full -> ()
          end)
        ops;
      let actual = Slotted_page.fold p ~init:[] ~f:(fun acc _ s -> s :: acc) |> List.rev in
      actual = !model)

(* --- checksum --- *)

let test_crc32_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926 *)
  Alcotest.(check int32) "known vector" 0xCBF43926l (Checksum.crc32_string "123456789");
  Alcotest.(check int32) "empty" 0l (Checksum.crc32_string "")

let test_crc32_incremental () =
  let s = "the quick brown fox" in
  let b = Bytes.of_string s in
  let whole = Checksum.crc32 b ~pos:0 ~len:(Bytes.length b) in
  let first = Checksum.crc32 b ~pos:0 ~len:9 in
  let rest = Checksum.crc32 ~init:first b ~pos:9 ~len:(Bytes.length b - 9) in
  Alcotest.(check int32) "incremental equals whole" whole rest

let test_crc32_kernels_agree () =
  (* The dispatching kernel (carry-less multiply over whole 16-byte blocks
     where the CPU has it, slicing-by-8 for short inputs, tails and other
     hosts) must agree with the bytewise reference at every alignment and
     length class: empty, sub-word tails, the single/dual-stream and
     hardware thresholds, and full pages. *)
  let n = 9000 in
  let b = Bytes.init n (fun i -> Char.chr (((i * 131) + (i lsr 3)) land 0xff)) in
  List.iter
    (fun (pos, len) ->
      Alcotest.(check int32)
        (Printf.sprintf "pos=%d len=%d" pos len)
        (Checksum.crc32_bytewise b ~pos ~len)
        (Checksum.crc32 b ~pos ~len))
    [
      (0, 0);
      (0, 1);
      (3, 7);
      (0, 8);
      (5, 9);
      (0, 127);
      (1, 128);
      (0, 129);
      (17, 1000);
      (0, 8192);
      (808, 8192);
    ]

let test_crc32_combine () =
  (* crc(a ++ b) = combine(crc a, crc b, |b|), for every cut point class
     including empty halves. *)
  let n = 4096 in
  let b = Bytes.init n (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  let whole = Checksum.crc32 b ~pos:0 ~len:n in
  List.iter
    (fun cut ->
      let a = Checksum.crc32 b ~pos:0 ~len:cut in
      let c = Checksum.crc32 b ~pos:cut ~len:(n - cut) in
      Alcotest.(check int32)
        (Printf.sprintf "cut=%d" cut)
        whole
        (Checksum.crc32_combine a c ~len2:(n - cut)))
    [ 0; 1; 13; 512; 2048; 4095; 4096 ];
  (* Chained init-style incremental and combine must agree too. *)
  let first = Checksum.crc32 b ~pos:0 ~len:1000 in
  let via_init = Checksum.crc32 ~init:first b ~pos:1000 ~len:(n - 1000) in
  Alcotest.(check int32) "combine equals init-chaining" via_init
    (Checksum.crc32_combine first (Checksum.crc32 b ~pos:1000 ~len:(n - 1000)) ~len2:(n - 1000))

(* Random bytes, an offset of 0-15 and a split point: the CRC of the two
   slices chained through [init] must equal the bytewise reference over the
   whole range, for the dispatching kernel and for the OCaml one alone. *)
let crc32_split_test =
  QCheck.Test.make ~name:"crc32 ?init equals the bytewise reference" ~count:300
    QCheck.(
      make
        Gen.(
          let* len = 0 -- 9000 in
          let* pos = 0 -- 15 in
          let* cut = 0 -- len in
          let* seed = int in
          return (len, pos, cut, seed))
        ~print:(fun (len, pos, cut, seed) ->
          Printf.sprintf "len=%d pos=%d cut=%d seed=%d" len pos cut seed))
    (fun (len, pos, cut, seed) ->
      let st = Random.State.make [| seed |] in
      let b = Bytes.init (pos + len + 3) (fun _ -> Char.chr (Random.State.int st 256)) in
      let expected = Checksum.crc32_bytewise b ~pos ~len in
      let chained crc =
        let first = crc ?init:None b ~pos ~len:cut in
        crc ?init:(Some first) b ~pos:(pos + cut) ~len:(len - cut)
      in
      let whole crc = crc ?init:None b ~pos ~len in
      let dispatch ?init b ~pos ~len = Checksum.crc32 ?init b ~pos ~len in
      let ocaml ?init b ~pos ~len = Checksum.crc32_ocaml ?init b ~pos ~len in
      whole dispatch = expected
      && chained dispatch = expected
      && whole ocaml = expected
      && chained ocaml = expected)

let test_crc32_bounds () =
  let b = Bytes.make 100 'x' in
  let kernels =
    [
      ("crc32", fun ~pos ~len -> ignore (Checksum.crc32 b ~pos ~len));
      ("crc32_ocaml", fun ~pos ~len -> ignore (Checksum.crc32_ocaml b ~pos ~len));
      ("crc32_bytewise", fun ~pos ~len -> ignore (Checksum.crc32_bytewise b ~pos ~len));
    ]
  in
  List.iter
    (fun (name, crc) ->
      List.iter
        (fun (pos, len) ->
          match crc ~pos ~len with
          | () -> Alcotest.failf "%s pos=%d len=%d: no exception" name pos len
          | exception Invalid_argument _ -> ())
        [ (-1, 10); (0, -1); (0, 101); (37, 64); (100, 1); (1, max_int); (max_int, 64) ];
      (* The edges themselves are in range. *)
      crc ~pos:0 ~len:100;
      crc ~pos:100 ~len:0;
      crc ~pos:36 ~len:64)
    kernels

let test_crc32_two_domains () =
  (* Scrub verifies pages on pool domains: concurrent callers must get the
     serial results. *)
  let inputs =
    List.init 24 (fun i ->
        let len = (i * 377) + (if i mod 2 = 0 then 64 else 9) in
        Bytes.init (len + 5) (fun j -> Char.chr (((j * 31) + (i * 7)) land 0xff)))
  in
  let run () =
    List.concat_map
      (fun b ->
        List.init 50 (fun k -> Checksum.crc32 b ~pos:(k mod 5) ~len:(Bytes.length b - 5)))
      inputs
  in
  let serial = run () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check (list int32)) "domain 1" serial r1;
  Alcotest.(check (list int32)) "domain 2" serial r2

(* --- media & clock --- *)

let test_media_costs () =
  let clock = Sim_clock.create () in
  let stats = Io_stats.create () in
  Media.random_read Media.ssd clock stats 8192;
  check "ssd random read costs ~100us+transfer" true
    (Sim_clock.now_us clock > 100.0 && Sim_clock.now_us clock < 200.0);
  let t0 = Sim_clock.now_us clock in
  Media.random_read Media.sas clock stats 8192;
  check "sas slower than ssd" true (Sim_clock.now_us clock -. t0 > 5000.0);
  check_int "ios counted" 2 stats.Io_stats.random_reads

let test_media_seq_vs_random () =
  let clock = Sim_clock.create () in
  let stats = Io_stats.create () in
  Media.seq_read Media.sas clock stats (8192 * 100);
  let seq_time = Sim_clock.now_us clock in
  let clock2 = Sim_clock.create () in
  for _ = 1 to 100 do
    Media.random_read Media.sas clock2 stats 8192
  done;
  check "sequential much cheaper than random on sas" true
    (Sim_clock.now_us clock2 > 10.0 *. seq_time)

let test_clock_monotonic () =
  let clock = Sim_clock.create () in
  Sim_clock.advance_us clock 5.0;
  Alcotest.(check (float 0.001)) "advance" 5.0 (Sim_clock.now_us clock);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Sim_clock.advance_us: negative")
    (fun () -> Sim_clock.advance_us clock (-1.0))

let test_io_stats_diff () =
  let a = Io_stats.create () in
  a.Io_stats.random_reads <- 10;
  let before = Io_stats.copy a in
  a.Io_stats.random_reads <- 25;
  let d = Io_stats.diff a before in
  check_int "diff" 15 d.Io_stats.random_reads

(* --- disk --- *)

let test_disk_roundtrip () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let p = Page.create ~id:(Page_id.of_int 5) ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "payload";
  Page.seal p;
  Disk.write_page disk (Page_id.of_int 5) p;
  let q = Disk.read_page disk (Page_id.of_int 5) in
  check_str "roundtrip" "payload" (Slotted_page.get q ~at:0);
  check_int "page_count covers highest" 6 (Disk.page_count disk);
  check "checksums valid" true (Disk.verify_checksums disk)

let test_disk_unwritten_page_is_zero () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let p = Disk.read_page disk (Page_id.of_int 3) in
  check_int "no slots" 0 (Slotted_page.count p);
  check "free type" true (Page.typ p = Page.Free);
  check_int "own id" 3 (Page_id.to_int (Page.id p))

let test_disk_write_isolation () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let p = Page.create ~id:(Page_id.of_int 0) ~typ:Page.Heap in
  Disk.write_page disk (Page_id.of_int 0) p;
  (* Mutating the caller's buffer after the write must not affect the
     durable copy. *)
  Slotted_page.insert p ~at:0 "mutated";
  let q = Disk.read_page disk (Page_id.of_int 0) in
  check_int "durable copy unaffected" 0 (Slotted_page.count q)

(* A page handed out by a read belongs to the caller, and a write copies
   into the stored image: mutating either buffer afterwards leaves the
   stored page as it was.  The second write of a page goes into the image
   the first write created, so both writes are checked. *)
let test_disk_ownership () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let pid = Page_id.of_int 3 in
  let p = Page.create ~id:pid ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "first";
  Disk.write_page disk pid p;
  Slotted_page.insert p ~at:1 "second";
  Disk.write_page disk pid p;
  Slotted_page.insert p ~at:2 "after the write";
  let r = Disk.read_page disk pid in
  check_int "rewrite copied, later edits not stored" 2 (Slotted_page.count r);
  Slotted_page.insert r ~at:0 "edit of a read page";
  Page.release r;
  let again = Disk.read_page disk pid in
  check_int "stored image unchanged by the reader" 2 (Slotted_page.count again);
  check_str "rows intact" "second" (Slotted_page.get again ~at:1);
  check "a second read is another buffer" true (again != Disk.read_page disk pid)

let test_sparse_ownership () =
  let clock = Sim_clock.create () in
  let sf = Sparse_file.create ~clock ~media:Media.ram () in
  let pid = Page_id.of_int 9 in
  let p = Page.create ~id:pid ~typ:Page.Btree in
  Slotted_page.insert p ~at:0 "first";
  Sparse_file.write sf pid p;
  Slotted_page.insert p ~at:1 "second";
  Sparse_file.write sf pid p;
  Slotted_page.insert p ~at:2 "after the write";
  let r = Option.get (Sparse_file.read sf pid) in
  check_int "rewrite copied, later edits not stored" 2 (Slotted_page.count r);
  Slotted_page.insert r ~at:0 "edit of a read page";
  Page.release r;
  let again = Option.get (Sparse_file.read sf pid) in
  check_int "stored image unchanged by the reader" 2 (Slotted_page.count again);
  check_str "rows intact" "second" (Slotted_page.get again ~at:1)

(* Released buffers feed the next copy on the same domain, and a recycled
   buffer carries nothing of its previous page. *)
let test_page_recycling () =
  Domain.join
    (Domain.spawn (fun () ->
         let a = Page.create ~id:(Page_id.of_int 1) ~typ:Page.Heap in
         Slotted_page.insert a ~at:0 "stale row";
         Page.release a;
         let b = Page.create ~id:(Page_id.of_int 2) ~typ:Page.Btree in
         check "create reuses the released buffer" true (a == b);
         check_int "formatted afresh" 0 (Slotted_page.count b);
         check_int "new id" 2 (Page_id.to_int (Page.id b));
         let src = Page.create ~id:(Page_id.of_int 7) ~typ:Page.Heap in
         Page.release b;
         let c = Page.copy src in
         check "copy reuses it too" true (c == b);
         check "copy equals its source" true (Bytes.equal c src);
         Page.release c;
         let d = Page.of_string (Bytes.to_string src) in
         check "of_string reuses it too" true (d == c);
         check "of_string equals its source" true (Bytes.equal d src);
         Alcotest.check_raises "of_string rejects a short image"
           (Invalid_argument "Page.of_string: not a page image") (fun () ->
             ignore (Page.of_string "short"))))

(* --- sparse file --- *)

let test_sparse_file () =
  let clock = Sim_clock.create () in
  let sf = Sparse_file.create ~clock ~media:Media.ram () in
  check "miss" true (Sparse_file.read sf (Page_id.of_int 9) = None);
  let p = Page.create ~id:(Page_id.of_int 9) ~typ:Page.Btree in
  Sparse_file.write sf (Page_id.of_int 9) p;
  check "hit" true (Sparse_file.read sf (Page_id.of_int 9) <> None);
  check_int "allocated bytes" Page.page_size (Sparse_file.allocated_bytes sf);
  check_int "page count" 1 (Sparse_file.page_count sf);
  Sparse_file.drop sf;
  check_int "dropped" 0 (Sparse_file.page_count sf)

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.int a max_int = Prng.int b max_int)
  done;
  let c = Prng.create 43 in
  check "different seed differs" true (Prng.int a max_int <> Prng.int c max_int)

let test_prng_ranges () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int_in r 5 10 in
    check "in range" true (v >= 5 && v <= 10);
    let n = Prng.non_uniform r ~a:255 ~x:1 ~y:3000 in
    check "nurand range" true (n >= 1 && n <= 3000)
  done;
  check_int "alpha length" 12 (String.length (Prng.alpha_string r 12))

let () =
  Alcotest.run "storage"
    [
      ( "lsn_pageid",
        [
          Alcotest.test_case "lsn ordering" `Quick test_lsn_order;
          Alcotest.test_case "page ids" `Quick test_page_id;
        ] );
      ( "page",
        [
          Alcotest.test_case "header fields" `Quick test_page_header;
          Alcotest.test_case "checksum" `Quick test_page_checksum;
          Alcotest.test_case "format resets" `Quick test_page_format_resets;
          Alcotest.test_case "released buffers are recycled" `Quick test_page_recycling;
        ] );
      ( "slotted",
        [
          Alcotest.test_case "insert/delete/get" `Quick test_slotted_basic;
          Alcotest.test_case "update grow/shrink" `Quick test_slotted_update;
          Alcotest.test_case "compaction" `Quick test_slotted_compaction;
          Alcotest.test_case "bounds checks" `Quick test_slotted_bounds;
          Alcotest.test_case "binary search" `Quick test_slotted_find_key;
          QCheck_alcotest.to_alcotest find_key_model_test;
          QCheck_alcotest.to_alcotest slotted_model_test;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          Alcotest.test_case "kernels agree" `Quick test_crc32_kernels_agree;
          Alcotest.test_case "combine" `Quick test_crc32_combine;
          QCheck_alcotest.to_alcotest crc32_split_test;
          Alcotest.test_case "out-of-range arguments" `Quick test_crc32_bounds;
          Alcotest.test_case "two domains" `Quick test_crc32_two_domains;
        ] );
      ( "media",
        [
          Alcotest.test_case "cost model" `Quick test_media_costs;
          Alcotest.test_case "seq vs random" `Quick test_media_seq_vs_random;
          Alcotest.test_case "clock" `Quick test_clock_monotonic;
          Alcotest.test_case "io stats diff" `Quick test_io_stats_diff;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "unwritten zero" `Quick test_disk_unwritten_page_is_zero;
          Alcotest.test_case "write isolation" `Quick test_disk_write_isolation;
          Alcotest.test_case "read and written pages stay private" `Quick test_disk_ownership;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "sparse file" `Quick test_sparse_file;
          Alcotest.test_case "read and written pages stay private" `Quick test_sparse_ownership;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
    ]
