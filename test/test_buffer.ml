(* Buffer manager tests: pin/unpin, eviction and write-back, the WAL rule,
   dirty-page tracking, latches. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Disk = Rw_storage.Disk
module Slotted_page = Rw_storage.Slotted_page
module Latch = Rw_buffer.Latch
module Buffer_pool = Rw_buffer.Buffer_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(capacity = 4) ?wal_flush () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  let pool = Buffer_pool.create ~capacity ~source:(Buffer_pool.of_disk disk) ?wal_flush () in
  (disk, pool)

(* --- latches --- *)

(* Whether taking [mode] now conflicts with the current holders. *)
let conflicts l mode =
  match Latch.with_latch l mode ignore with () -> false | exception Latch.Latch_conflict -> true

let test_latch_modes () =
  let l = Latch.create () in
  Latch.with_latch l Latch.Shared (fun () ->
      Latch.with_latch l Latch.Shared (fun () ->
          check "exclusive blocked by shared" true (conflicts l Latch.Exclusive));
      check "one of two shared holders left" false (Latch.is_free l));
  Latch.with_latch l Latch.Exclusive (fun () ->
      check "shared blocked by exclusive" true (conflicts l Latch.Shared);
      check "exclusive blocked by exclusive" true (conflicts l Latch.Exclusive));
  check "free" true (Latch.is_free l)

let test_latch_conflict_raises () =
  let l = Latch.create () in
  Latch.with_latch l Latch.Exclusive (fun () ->
      Alcotest.check_raises "conflict" Latch.Latch_conflict (fun () ->
          Latch.with_latch l Latch.Shared ignore))

let test_with_latch_releases_on_exn () =
  let l = Latch.create () in
  (try Latch.with_latch l Latch.Exclusive (fun () -> failwith "boom") with Failure _ -> ());
  check "released after exception" true (Latch.is_free l)

(* --- pool --- *)

let test_fetch_hit_miss () =
  let _, pool = mk () in
  let f1 = Buffer_pool.fetch pool (Page_id.of_int 1) in
  Buffer_pool.unpin pool f1;
  let f2 = Buffer_pool.fetch pool (Page_id.of_int 1) in
  Buffer_pool.unpin pool f2;
  check_int "one miss" 1 (Buffer_pool.misses pool);
  check_int "one hit" 1 (Buffer_pool.hits pool)

let test_eviction_writes_back () =
  let disk, pool = mk ~capacity:2 () in
  let fetch_dirty pid text =
    let f = Buffer_pool.fetch pool (Page_id.of_int pid) in
    let p = Buffer_pool.page f in
    Slotted_page.insert p ~at:0 text;
    Page.set_lsn p (Lsn.of_int (pid + 1));
    Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int (pid + 1));
    Buffer_pool.unpin pool f
  in
  fetch_dirty 0 "zero";
  fetch_dirty 1 "one";
  fetch_dirty 2 "two" (* evicts one of the first two *);
  check_int "resident at capacity" 2 (Buffer_pool.resident pool);
  (* Whatever was evicted must be durable. *)
  let durable pid = Slotted_page.count (Disk.read_page_nocost disk (Page_id.of_int pid)) = 1 in
  check "an evicted dirty page was written" true (durable 0 || durable 1)

let test_wal_rule () =
  let flushed = ref [] in
  let _, pool = mk ~capacity:1 ~wal_flush:(fun lsn -> flushed := lsn :: !flushed) () in
  let f = Buffer_pool.fetch pool (Page_id.of_int 0) in
  Page.set_lsn (Buffer_pool.page f) (Lsn.of_int 77);
  Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int 77);
  Buffer_pool.unpin pool f;
  Buffer_pool.flush_all pool;
  check "wal_flush called with page lsn" true (!flushed = [ Lsn.of_int 77 ])

let test_pinned_not_evicted () =
  let _, pool = mk ~capacity:2 () in
  let f0 = Buffer_pool.fetch pool (Page_id.of_int 0) in
  let _f1 = Buffer_pool.fetch pool (Page_id.of_int 1) in
  Alcotest.check_raises "all pinned" (Failure "Buffer_pool: all frames pinned") (fun () ->
      ignore (Buffer_pool.fetch pool (Page_id.of_int 2)));
  Buffer_pool.unpin pool f0;
  let f2 = Buffer_pool.fetch pool (Page_id.of_int 2) in
  check "made progress after unpin" true (Buffer_pool.pin_count f2 = 1)

let test_dirty_page_table () =
  let _, pool = mk () in
  let f = Buffer_pool.fetch pool (Page_id.of_int 3) in
  Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int 10);
  (* rec_lsn keeps the FIRST dirtying lsn *)
  Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int 20);
  Buffer_pool.unpin pool f;
  (match Buffer_pool.dirty_page_table pool with
  | [ (pid, rec_lsn) ] ->
      check_int "page" 3 (Page_id.to_int pid);
      check_int "rec lsn is first" 10 (Lsn.to_int rec_lsn)
  | _ -> Alcotest.fail "expected exactly one dirty page");
  Buffer_pool.flush_all pool;
  check_int "clean after flush" 0 (List.length (Buffer_pool.dirty_page_table pool))

let test_drop_all () =
  let disk, pool = mk () in
  let f = Buffer_pool.fetch pool (Page_id.of_int 0) in
  Slotted_page.insert (Buffer_pool.page f) ~at:0 "volatile";
  Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int 1);
  Buffer_pool.unpin pool f;
  Buffer_pool.drop_all pool;
  check_int "nothing resident" 0 (Buffer_pool.resident pool);
  check_int "dirty page lost (never written)" 0
    (Slotted_page.count (Disk.read_page_nocost disk (Page_id.of_int 0)))

let test_with_page () =
  let _, pool = mk () in
  let v =
    Buffer_pool.with_page pool (Page_id.of_int 5) ~mode:Latch.Shared (fun p ->
        Page_id.to_int (Page.id p))
  in
  check_int "ran under latch" 5 v;
  (* latch and pin released *)
  let f = Buffer_pool.fetch pool (Page_id.of_int 5) in
  check_int "pin count back to 1" 1 (Buffer_pool.pin_count f);
  check "latch free" true (Latch.is_free (Buffer_pool.frame_latch f));
  Buffer_pool.unpin pool f

let test_checksum_verified_on_read () =
  let clock = Sim_clock.create () in
  let disk = Disk.create ~clock ~media:Media.ram () in
  (* Corrupt a sealed page behind the pool's back. *)
  let p = Page.create ~id:(Page_id.of_int 0) ~typ:Page.Heap in
  Slotted_page.insert p ~at:0 "data";
  Page.seal p;
  Bytes.set p 100 '!';
  Disk.write_page disk (Page_id.of_int 0) p;
  let pool = Buffer_pool.create ~capacity:2 ~source:(Buffer_pool.of_disk disk) () in
  Alcotest.check_raises "corruption detected" (Disk.Corrupt_page (Page_id.of_int 0)) (fun () ->
      ignore (Buffer_pool.fetch pool (Page_id.of_int 0)));
  check_int "detection counted" 1 (Disk.stats disk).Rw_storage.Io_stats.corruptions_detected

let () =
  Alcotest.run "buffer"
    [
      ( "latch",
        [
          Alcotest.test_case "modes" `Quick test_latch_modes;
          Alcotest.test_case "conflict raises" `Quick test_latch_conflict_raises;
          Alcotest.test_case "with_latch releases" `Quick test_with_latch_releases_on_exn;
        ] );
      ( "pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_fetch_hit_miss;
          Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
          Alcotest.test_case "WAL rule" `Quick test_wal_rule;
          Alcotest.test_case "pinned not evicted" `Quick test_pinned_not_evicted;
          Alcotest.test_case "dirty page table" `Quick test_dirty_page_table;
          Alcotest.test_case "drop_all" `Quick test_drop_all;
          Alcotest.test_case "with_page" `Quick test_with_page;
          Alcotest.test_case "checksum on read" `Quick test_checksum_verified_on_read;
        ] );
    ]
