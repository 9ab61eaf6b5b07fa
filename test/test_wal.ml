(* Tests for the write-ahead log: codec and record round-trips, append /
   flush / crash semantics, the block cache, truncation and the FPI
   directory. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Txn_id = Rw_wal.Txn_id
module Codec = Rw_wal.Codec
module Lru = Rw_wal.Lru
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_log ?(media = Media.ram) ?cache_blocks ?block_bytes ?segment_bytes () =
  let clock = Sim_clock.create () in
  (clock, Log_manager.create ~clock ~media ?cache_blocks ?block_bytes ?segment_bytes ())

(* --- codec --- *)

let test_codec_roundtrip () =
  let e = Codec.encoder () in
  Codec.u8 e 200;
  Codec.u16 e 65535;
  Codec.u32 e 123456789;
  Codec.i64 e (-42L);
  Codec.f64 e 3.25;
  Codec.str16 e "hello";
  Codec.str32 e (String.make 70000 'z');
  let d = Codec.decoder (Codec.to_string e) in
  check_int "u8" 200 (Codec.get_u8 d);
  check_int "u16" 65535 (Codec.get_u16 d);
  check_int "u32" 123456789 (Codec.get_u32 d);
  check "i64" true (Codec.get_i64 d = -42L);
  Alcotest.(check (float 0.0)) "f64" 3.25 (Codec.get_f64 d);
  Alcotest.(check string) "str16" "hello" (Codec.get_str16 d);
  check_int "str32 length" 70000 (String.length (Codec.get_str32 d));
  check "consumed" true (Codec.at_end d)

(* --- LRU --- *)

let test_lru () =
  let l = Lru.create ~capacity:3 in
  check "miss" false (Lru.use l 1);
  check "miss" false (Lru.use l 2);
  check "miss" false (Lru.use l 3);
  check "hit" true (Lru.use l 1);
  (* inserting 4 evicts the LRU entry, which is 2 *)
  check "miss" false (Lru.use l 4);
  check "2 evicted" false (Lru.mem l 2);
  check "1 kept" true (Lru.mem l 1);
  check "3 kept" true (Lru.mem l 3);
  check_int "size" 3 (Lru.size l);
  Lru.remove l 3;
  check "removed" false (Lru.mem l 3);
  Lru.clear l;
  check_int "cleared" 0 (Lru.size l)

(* --- record serialisation --- *)

let sample_ops =
  [
    Log_record.Insert_row { slot = 3; row = "abc" };
    Log_record.Delete_row { slot = 0; row = "" };
    Log_record.Update_row { slot = 7; before = "old"; after = "newer" };
    Log_record.Set_header { field = Log_record.Next_page; before = -1L; after = 12L };
    Log_record.Set_header { field = Log_record.Level; before = 0L; after = 1L };
    Log_record.Format { typ = Page.Btree; level = 2 };
    Log_record.Preformat { prev_image = String.make Page.page_size 'p' };
    Log_record.Full_image { image = String.make Page.page_size 'i' };
  ]

let sample_bodies =
  Log_record.Begin
  :: Log_record.Commit { wall_us = 123.5 }
  :: Log_record.Abort
  :: Log_record.End
  :: Log_record.Checkpoint
       {
         wall_us = 88.0;
         active_txns = [ (Txn_id.of_int 3, Lsn.of_int 17); (Txn_id.of_int 9, Lsn.of_int 44) ];
         dirty_pages = [ (Page_id.of_int 2, Lsn.of_int 5) ];
       }
  :: List.concat_map
       (fun op ->
         [
           Log_record.Page_op { page = Page_id.of_int 5; prev_page_lsn = Lsn.of_int 9; op };
           Log_record.Clr
             {
               page = Page_id.of_int 5;
               prev_page_lsn = Lsn.of_int 9;
               op;
               undo_next = Lsn.of_int 3;
             };
         ])
       sample_ops

let test_record_roundtrip () =
  List.iteri
    (fun i body ->
      let r = Log_record.make ~txn:(Txn_id.of_int i) ~prev_txn_lsn:(Lsn.of_int (i * 3)) body in
      let r' = Log_record.decode (Log_record.encode r) in
      if r <> r' then Alcotest.failf "roundtrip mismatch for %s" (Log_record.kind_name r))
    sample_bodies

(* The header peek must agree with a full decode on every record kind —
   the directory indexes (FPI, chains, checkpoints) are maintained from
   peeks alone. *)
let test_peek_matches_decode () =
  List.iteri
    (fun i body ->
      let r = Log_record.make ~txn:(Txn_id.of_int i) ~prev_txn_lsn:(Lsn.of_int (i * 5)) body in
      let pk = Log_record.peek (Log_record.encode r) in
      check "txn" true (pk.Log_record.p_txn = Txn_id.of_int i);
      check "prev txn lsn" true (Lsn.equal pk.Log_record.p_prev_txn_lsn (Lsn.of_int (i * 5)));
      match body with
      | Log_record.Page_op { page; prev_page_lsn; _ } | Log_record.Clr { page; prev_page_lsn; _ }
        ->
          check "page kind" true (Log_record.is_page_kind pk.Log_record.p_kind);
          check "page id" true (Page_id.equal pk.Log_record.p_page page);
          check "prev page lsn" true (Lsn.equal pk.Log_record.p_prev_page_lsn prev_page_lsn)
      | _ ->
          check "not a page kind" false (Log_record.is_page_kind pk.Log_record.p_kind);
          check "nil page" true (Page_id.equal pk.Log_record.p_page Page_id.nil))
    sample_bodies

let record_gen =
  let open QCheck.Gen in
  let op_gen =
    oneof
      [
        map2 (fun slot row -> Log_record.Insert_row { slot; row }) (0 -- 100) (string_size (0 -- 50));
        map2 (fun slot row -> Log_record.Delete_row { slot; row }) (0 -- 100) (string_size (0 -- 50));
        map3
          (fun slot before after -> Log_record.Update_row { slot; before; after })
          (0 -- 100) (string_size (0 -- 50)) (string_size (0 -- 50));
        map2
          (fun before after ->
            Log_record.Set_header { field = Log_record.Special; before; after })
          (map Int64.of_int int) (map Int64.of_int int);
      ]
  in
  let body_gen =
    oneof
      [
        return Log_record.Begin;
        map (fun w -> Log_record.Commit { wall_us = w }) (float_bound_inclusive 1e9);
        return Log_record.Abort;
        return Log_record.End;
        map2
          (fun page op ->
            Log_record.Page_op
              { page = Page_id.of_int page; prev_page_lsn = Lsn.of_int 7; op })
          (0 -- 10000) op_gen;
      ]
  in
  map2
    (fun txn body -> Log_record.make ~txn:(Txn_id.of_int txn) body)
    (0 -- 1000) body_gen

let record_roundtrip_prop =
  QCheck.Test.make ~name:"log record encode/decode roundtrip" ~count:500
    (QCheck.make record_gen) (fun r -> Log_record.decode (Log_record.encode r) = r)

let test_invert_involution () =
  List.iter
    (fun op ->
      match Log_record.invert op with
      | None -> ()
      | Some inv -> (
          match (op, Log_record.invert inv) with
          | Log_record.Format _, _ -> () (* format inversion is lossy by design *)
          | _, Some back ->
              if back <> op then Alcotest.fail "invert should be an involution"
          | _, None -> Alcotest.fail "inverse should be invertible"))
    sample_ops

(* Logical page content: slotted ops are not byte-exact inverses (free
   space bookkeeping differs after compaction), but queries only observe
   header fields and records — which must round-trip exactly. *)
let canonical p =
  ( Page.lsn p,
    Page.typ p,
    Page.level p,
    Page.prev_page p,
    Page.next_page p,
    Page.special p,
    List.init (Rw_storage.Slotted_page.count p) (fun i -> Rw_storage.Slotted_page.get p ~at:i) )

let test_redo_undo_inverse () =
  (* For content ops: redo then undo restores the page's logical content. *)
  let mk () =
    let p = Page.create ~id:(Page_id.of_int 5) ~typ:Page.Btree in
    Rw_storage.Slotted_page.insert p ~at:0 "row0";
    Rw_storage.Slotted_page.insert p ~at:1 "row1";
    p
  in
  let ops =
    [
      Log_record.Insert_row { slot = 1; row = "inserted" };
      Log_record.Delete_row { slot = 0; row = "row0" };
      Log_record.Update_row { slot = 1; before = "row1"; after = "replacement" };
      Log_record.Set_header { field = Log_record.Next_page; before = -1L; after = 7L };
    ]
  in
  List.iter
    (fun op ->
      let p = mk () in
      let orig = canonical p in
      Log_record.redo (Page_id.of_int 5) op p;
      check "redo changed page" true (canonical p <> orig);
      Log_record.undo op p;
      check "undo restores logical content" true (canonical p = orig))
    ops

(* --- in-place undo kernel ---

   For every op kind, as both a Page_op and a Clr, undoing the encoded
   record where it sits in a blob must leave the page byte-equal to
   [undo] of its decode, and return the record's back pointer.  Any
   single flipped byte before the CRC trailer, a foreign page id or a
   back pointer outside the expected link must be rejected before the
   page is touched. *)

let kernel_case_gen =
  let open QCheck.Gen in
  let row = string_size ~gen:printable (0 -- 120) in
  list_size (0 -- 12) row >>= fun rows ->
  let n = List.length rows in
  let image = string_size ~gen:char (return Page.page_size) in
  let header_value = function
    | Log_record.Level -> map Int64.of_int (0 -- 255)
    | Log_record.Prev_page | Log_record.Next_page -> map Int64.of_int (-1 -- 100_000)
    | Log_record.Special -> map Int64.of_int int
  in
  let set_header =
    oneofl Log_record.[ Prev_page; Next_page; Special; Level ] >>= fun field ->
    map2
      (fun before after -> Log_record.Set_header { field; before; after })
      (header_value field) (header_value field)
  in
  let always =
    [
      map2 (fun slot row -> Log_record.Insert_row { slot; row }) (0 -- n) row;
      set_header;
      map2
        (fun typ level -> Log_record.Format { typ; level })
        (oneofl Page.[ Free; Boot; Alloc_map; Btree; Heap ])
        (0 -- 255);
      map (fun prev_image -> Log_record.Preformat { prev_image }) image;
      map (fun image -> Log_record.Full_image { image }) image;
    ]
  in
  let with_rows =
    if n = 0 then []
    else
      [
        map (fun slot -> Log_record.Delete_row { slot; row = List.nth rows slot }) (0 -- (n - 1));
        map2
          (fun slot after -> Log_record.Update_row { slot; before = List.nth rows slot; after })
          (0 -- (n - 1)) row;
      ]
  in
  quad (return rows) (oneof (always @ with_rows)) bool (0 -- 1_000_000)

let kernel_prop =
  QCheck.Test.make ~name:"in-place undo matches decoded undo" ~count:500
    (QCheck.make kernel_case_gen) (fun (rows, op, clr, salt) ->
      let pid = Page_id.of_int 9 and prev = Lsn.of_int 4242 in
      let body =
        if clr then
          Log_record.Clr { page = pid; prev_page_lsn = prev; op; undo_next = Lsn.of_int 17 }
        else Log_record.Page_op { page = pid; prev_page_lsn = prev; op }
      in
      let enc = Log_record.encode (Log_record.make ~txn:(Txn_id.of_int 3) body) in
      (* The record sits inside a larger blob, as in a log segment. *)
      let pos = 1 + (salt mod 97) and len = String.length enc in
      let blob = Bytes.make (pos + len + 13) '\xa5' in
      Bytes.blit_string enc 0 blob pos len;
      (* The post-state the record leaves behind. *)
      let post = Page.create ~id:pid ~typ:Page.Heap in
      List.iteri (fun i r -> Rw_storage.Slotted_page.insert post ~at:i r) rows;
      Log_record.redo pid op post;
      let expected = Bytes.copy post in
      Log_record.undo (Option.get (Log_record.op_of (Log_record.decode enc))) expected;
      let got = Bytes.copy post in
      let back =
        Log_record.undo_in_place blob ~pos ~len ~page:pid ~prev_lo:prev ~prev_hi:prev got
      in
      (* The structural checks: each rejects before the page is touched. *)
      let rejected ?(page = pid) ?(prev_lo = prev) ?(prev_hi = prev) ?(len = len) b =
        let target = Bytes.copy post in
        match Log_record.undo_in_place b ~pos ~len ~page ~prev_lo ~prev_hi target with
        | _ -> false
        | exception Log_record.Corrupt_record -> Bytes.equal target post
      in
      let other = Lsn.of_int 4243 in
      let retagged = Bytes.copy blob in
      Bytes.set retagged (pos + 16) (Char.chr (salt mod 5));
      Bytes.equal expected got && Lsn.equal back prev
      && rejected ~page:(Page_id.of_int 10) blob
      && rejected ~prev_lo:other blob
      && rejected ~prev_lo:other ~prev_hi:other blob
      && rejected ~len:(len - 1 - (salt mod (len - 1))) blob
      && rejected retagged)

(* --- log manager --- *)

let page_op ?(txn = Txn_id.nil) ?(prev = Lsn.nil) ?(pid = 3) op =
  Log_record.make ~txn (Log_record.Page_op { page = Page_id.of_int pid; prev_page_lsn = prev; op })

let test_append_read () =
  let _, log = mk_log () in
  let r1 = Log_record.make ~txn:(Txn_id.of_int 1) Log_record.Begin in
  let r2 = page_op (Log_record.Insert_row { slot = 0; row = "x" }) in
  let l1 = Log_manager.append log r1 in
  let l2 = Log_manager.append log r2 in
  check "lsns increase" true Lsn.(l2 > l1);
  check "read back 1" true (Log_manager.read log l1 = r1);
  check "read back 2" true (Log_manager.read log l2 = r2);
  check_int "record count" 2 (Log_manager.record_count log);
  check "next_lsn_after" true (Lsn.equal (Log_manager.next_lsn_after log l1) l2)

let test_lsn_is_offset () =
  let _, log = mk_log () in
  let r = Log_record.make Log_record.Begin in
  let l1 = Log_manager.append log r in
  let l2 = Log_manager.append log r in
  check_int "lsn delta equals record size" (String.length (Log_record.encode r))
    (Lsn.to_int l2 - Lsn.to_int l1)

let test_flush_crash () =
  let _, log = mk_log () in
  let l1 = Log_manager.append log (Log_record.make Log_record.Begin) in
  Log_manager.flush log ~upto:l1;
  let l2 = Log_manager.append log (Log_record.make Log_record.Abort) in
  check "l2 not durable" true Lsn.(Log_manager.flushed_lsn log <= l2);
  Log_manager.crash log;
  check "l1 survives" true (Log_manager.mem log l1);
  check "l2 lost" false (Log_manager.mem log l2);
  check "end lsn rolled back" true (Lsn.equal (Log_manager.end_lsn log) (Log_manager.flushed_lsn log))

let test_iter_range () =
  let _, log = mk_log () in
  let lsns =
    List.init 10 (fun i ->
        Log_manager.append log (Log_record.make ~txn:(Txn_id.of_int i) Log_record.Begin))
  in
  let seen = ref [] in
  Log_manager.iter_range_peek log ~from:(List.nth lsns 2) ~upto:(List.nth lsns 7) (fun lsn _ _ ->
      seen := lsn :: !seen);
  check_int "range covers [2,7)" 5 (List.length !seen);
  let seen_rev = ref [] in
  Log_manager.iter_range_rev log ~from:(List.nth lsns 2) ~upto:(List.nth lsns 7) (fun lsn _ ->
      seen_rev := lsn :: !seen_rev);
  check "reverse order" true (!seen_rev = List.rev !seen)

let test_truncate () =
  let _, log = mk_log () in
  let lsns = List.init 10 (fun _ -> Log_manager.append log (Log_record.make Log_record.Begin)) in
  let cut = List.nth lsns 5 in
  Log_manager.truncate_before log cut;
  check "old gone" false (Log_manager.mem log (List.nth lsns 0));
  check "new kept" true (Log_manager.mem log (List.nth lsns 5));
  check "first_lsn moved" true (Lsn.equal (Log_manager.first_lsn log) cut);
  Alcotest.check_raises "reading truncated raises"
    (Log_manager.Log_truncated (List.nth lsns 0))
    (fun () -> ignore (Log_manager.read log (List.nth lsns 0)))

let test_cache_misses_cost () =
  let clock, log = mk_log ~media:Media.ssd ~cache_blocks:2 () in
  (* Write enough records to span many 64KiB blocks. *)
  let image = String.make Page.page_size 'i' in
  let lsns =
    List.init 64 (fun _ -> Log_manager.append log (page_op (Log_record.Full_image { image })))
  in
  Log_manager.flush_all log;
  let t0 = Sim_clock.now_us clock in
  let stats0 = Io_stats.copy (Log_manager.stats log) in
  (* Reading the oldest record must miss the tiny cache. *)
  ignore (Log_manager.read log (List.hd lsns));
  let d = Io_stats.diff (Log_manager.stats log) stats0 in
  check "cold read misses" true (d.Io_stats.random_reads >= 1);
  check "cold read costs time" true (Sim_clock.now_us clock > t0);
  (* Re-reading the same record now hits. *)
  let stats1 = Io_stats.copy (Log_manager.stats log) in
  ignore (Log_manager.read log (List.hd lsns));
  let d2 = Io_stats.diff (Log_manager.stats log) stats1 in
  check_int "warm read hits" 0 d2.Io_stats.random_reads;
  (* [charge_read] prices exactly what [read] does and counts no record
     read. *)
  let cold () =
    let _, l = mk_log ~media:Media.ssd ~cache_blocks:2 () in
    Log_manager.restore_entries l (Log_manager.dump_entries log);
    l
  in
  let log' = cold () and log'' = cold () in
  List.iter
    (fun lsn ->
      let r0 = Io_stats.copy (Log_manager.stats log') in
      let c0 = Io_stats.copy (Log_manager.stats log'') in
      ignore (Log_manager.read log' lsn);
      Log_manager.charge_read log'' lsn;
      let r = Io_stats.diff (Log_manager.stats log') r0 in
      let c = Io_stats.diff (Log_manager.stats log'') c0 in
      check_int "same block misses" r.Io_stats.log_block_misses c.Io_stats.log_block_misses;
      check_int "same random reads" r.Io_stats.random_reads c.Io_stats.random_reads;
      check_int "no record read counted" 0 (c.Io_stats.log_record_hits + c.Io_stats.log_record_misses))
    [ List.nth lsns 3; List.nth lsns 40; List.nth lsns 3; List.nth lsns 63 ]

let test_fpi_directory () =
  let _, log = mk_log () in
  let image = String.make Page.page_size 'i' in
  let fpi pid = page_op ~pid (Log_record.Full_image { image }) in
  let other pid = page_op ~pid (Log_record.Insert_row { slot = 0; row = "r" }) in
  let _ = Log_manager.append log (other 1) in
  let f1 = Log_manager.append log (fpi 1) in
  let _ = Log_manager.append log (other 1) in
  let f2 = Log_manager.append log (fpi 1) in
  let _ = Log_manager.append log (fpi 2) in
  (match Log_manager.earliest_fpi_after log (Page_id.of_int 1) ~after:Lsn.nil with
  | Some l -> check "earliest is f1" true (Lsn.equal l f1)
  | None -> Alcotest.fail "expected fpi");
  (match Log_manager.earliest_fpi_after log (Page_id.of_int 1) ~after:f1 with
  | Some l -> check "after f1 is f2" true (Lsn.equal l f2)
  | None -> Alcotest.fail "expected fpi");
  check "after f2 none" true
    (Log_manager.earliest_fpi_after log (Page_id.of_int 1) ~after:f2 = None);
  check "unknown page none" true
    (Log_manager.earliest_fpi_after log (Page_id.of_int 99) ~after:Lsn.nil = None)

(* [append_image] writes the bytes [encode] gives for the same record and
   indexes it as an image on the page's chain; [image_in_place] restores
   the image from those bytes, and rejects a wrong record or op tag, a
   foreign page id, a wrong image size or a truncated span with the page
   untouched.  (The CRC is checked where bytes enter the log, not here.) *)
let test_append_image () =
  let _, log = mk_log ~segment_bytes:16384 () in
  let pid = Page_id.of_int 7 in
  let page = Page.create ~id:pid ~typ:Page.Heap in
  Rw_storage.Slotted_page.insert page ~at:0 "the row";
  let l0 = Log_manager.append log (page_op ~pid:7 (Log_record.Insert_row { slot = 0; row = "r" })) in
  Page.set_lsn page l0;
  (* The second image crosses a segment seal. *)
  let images =
    List.map
      (fun prev ->
        let lsn = Log_manager.append_image log ~page:pid ~prev_page_lsn:prev page in
        (lsn, prev))
      [ l0; Lsn.of_int (Lsn.to_int l0 + 1) ]
  in
  let entries = Log_manager.dump_entries log in
  List.iter
    (fun (lsn, prev) ->
      let expected =
        Log_record.encode
          (Log_record.make
             (Log_record.Page_op
                {
                  page = pid;
                  prev_page_lsn = prev;
                  op = Log_record.Full_image { image = Bytes.to_string page };
                }))
      in
      let data = List.assoc lsn entries in
      check "same bytes as encode" true (String.equal data expected);
      check_int "record size" Log_record.image_record_size (String.length data);
      check "next lsn" true
        (Lsn.to_int (Log_manager.next_lsn_after log lsn) = Lsn.to_int lsn + String.length data);
      let restored = Page.create ~id:pid ~typ:Page.Free in
      let b = Bytes.of_string data in
      Log_record.image_in_place b ~pos:0 ~len:(Bytes.length b) ~page:pid restored;
      check "restored in place" true (Bytes.equal restored page);
      let rejected what ?(len = Bytes.length b) bad =
        let target = Page.create ~id:pid ~typ:Page.Free in
        let before = Bytes.copy target in
        check (what ^ " rejected") true
          (match Log_record.image_in_place bad ~pos:0 ~len ~page:pid target with
          | () -> false
          | exception Log_record.Corrupt_record -> Bytes.equal target before)
      in
      (* the record tag, a page id byte, the op tag, an image size byte *)
      List.iter
        (fun at ->
          let bad = Bytes.copy b in
          Bytes.set bad at (Char.chr (Char.code (Bytes.get bad at) lxor 0x10));
          rejected (Printf.sprintf "flip at %d" at) bad)
        [ 16; 20; 33; 35 ];
      rejected "truncated span" ~len:(Bytes.length b - 1) b;
      check "foreign page rejected" true
        (match Log_record.image_in_place b ~pos:0 ~len:(Bytes.length b) ~page:(Page_id.of_int 8) page with
        | () -> false
        | exception Log_record.Corrupt_record -> true))
    images;
  (match Log_manager.earliest_fpi_after log pid ~after:l0 with
  | Some l -> check "indexed as an image" true (Lsn.equal l (fst (List.hd images)))
  | None -> Alcotest.fail "expected an image");
  check_int "on the page chain" 3
    (Array.length (Log_manager.chain_segment log pid ~from:(Log_manager.end_lsn log) ~down_to:Lsn.nil))

(* The retained checkpoints at or before [upto], newest first, with
   their wall times, by the directory walk. *)
let walk_checkpoints ?(upto = Lsn.of_int max_int) log =
  let acc = ref [] in
  Log_manager.iter_checkpoints_rev log (fun l w ->
      if Lsn.(l <= upto) then acc := (l, w) :: !acc;
      true);
  List.rev !acc

let checkpoint_lsns ?upto log = List.map fst (walk_checkpoints ?upto log)

let test_checkpoints_before () =
  let _, log = mk_log () in
  let ckpt () =
    Log_manager.append log
      (Log_record.make (Log_record.Checkpoint { wall_us = 0.0; active_txns = []; dirty_pages = [] }))
  in
  let c1 = ckpt () in
  let _ = Log_manager.append log (Log_record.make Log_record.Begin) in
  let c2 = ckpt () in
  let cs = checkpoint_lsns ~upto:(Log_manager.end_lsn log) log in
  check "two checkpoints newest first" true (cs = [ c2; c1 ]);
  let cs1 = checkpoint_lsns ~upto:c2 log in
  check "bounded" true (cs1 = [ c2; c1 ] || cs1 = [ c1 ]);
  check "before c1 only c1" true (checkpoint_lsns ~upto:c1 log = [ c1 ])

let test_truncate_prunes_indexes () =
  let _, log = mk_log () in
  let image = String.make Page.page_size 'i' in
  let ckpt () =
    Log_manager.append log
      (Log_record.make (Log_record.Checkpoint { wall_us = 0.0; active_txns = []; dirty_pages = [] }))
  in
  let f1 = Log_manager.append log (page_op ~pid:1 (Log_record.Full_image { image })) in
  let c1 = ckpt () in
  let c2 = ckpt () in
  let _f2 = Log_manager.append log (page_op ~pid:1 (Log_record.Full_image { image })) in
  Log_manager.truncate_before log c2;
  (* The truncated FPI and checkpoint must no longer be surfaced. *)
  (match Log_manager.earliest_fpi_after log (Page_id.of_int 1) ~after:Lsn.nil with
  | Some l -> check "first surviving fpi is after truncation" true Lsn.(l >= c2)
  | None -> Alcotest.fail "expected a surviving fpi lookup path");
  check "old checkpoint pruned" false
    (List.exists (Lsn.equal c1) (checkpoint_lsns ~upto:(Log_manager.end_lsn log) log));
  check "old fpi unreadable" true
    (match Log_manager.read log f1 with
    | exception Log_manager.Log_truncated _ -> true
    | _ -> false)

let test_read_non_boundary () =
  let _, log = mk_log () in
  let l1 = Log_manager.append log (Log_record.make Log_record.Begin) in
  let _l2 = Log_manager.append log (Log_record.make Log_record.Begin) in
  let bad = Lsn.of_int (Lsn.to_int l1 + 1) in
  match Log_manager.read log bad with
  | exception Log_manager.No_such_record l ->
      Alcotest.check (module Lsn) "exception carries the lsn" bad l
  | _ -> Alcotest.fail "expected No_such_record for a mid-record lsn"

let test_total_bytes_accounting () =
  let _, log = mk_log () in
  let r = Log_record.make Log_record.Begin in
  let sz = String.length (Log_record.encode r) in
  for _ = 1 to 5 do
    ignore (Log_manager.append log r)
  done;
  check_int "total appended" (5 * sz) (Log_manager.total_appended_bytes log);
  check_int "retained" (5 * sz) (Log_manager.retained_bytes log)

(* --- chain index --- *)

let test_chain_segment () =
  let _, log = mk_log () in
  let track = Hashtbl.create 8 in
  let appended pid lsn =
    Hashtbl.replace track pid
      (lsn :: (match Hashtbl.find_opt track pid with Some l -> l | None -> []))
  in
  for i = 0 to 29 do
    let pid = 1 + (i mod 3) in
    let lsn = Log_manager.append log (page_op ~pid (Log_record.Insert_row { slot = 0; row = "r" })) in
    appended pid lsn;
    (* Interleave records that must not appear in any chain. *)
    if i mod 5 = 0 then ignore (Log_manager.append log (Log_record.make Log_record.Begin))
  done;
  let top = Log_manager.end_lsn log in
  List.iter
    (fun pid ->
      let expect = List.rev (Hashtbl.find track pid) in
      let seg = Log_manager.chain_segment log (Page_id.of_int pid) ~from:top ~down_to:Lsn.nil in
      check "segment equals appended chain" true (Array.to_list seg = expect))
    [ 1; 2; 3 ];
  (* Both bounds: down_to exclusive, from inclusive. *)
  (match List.rev (Hashtbl.find track 1) with
  | a :: b :: c :: _ ->
      let seg = Log_manager.chain_segment log (Page_id.of_int 1) ~from:c ~down_to:a in
      check "bounded segment" true (Array.to_list seg = [ b; c ])
  | _ -> Alcotest.fail "expected at least three records");
  check "unknown page empty" true
    (Log_manager.chain_segment log (Page_id.of_int 99) ~from:top ~down_to:Lsn.nil = [||]);
  (* pages_changed_since: nothing after the end, everything after nil. *)
  check_int "no page changed since top" 0 (List.length (Log_manager.pages_changed_since log ~since:top));
  check_int "all pages changed since nil" 3
    (List.length (Log_manager.pages_changed_since log ~since:Lsn.nil))

(* Truncation and crash must leave the FPI / chain / checkpoint indexes in
   exactly the state a from-scratch rebuild of the surviving records
   produces. *)
let indexes_agree_after_truncate_and_crash ?segment_bytes () =
  let _, log = mk_log ?segment_bytes () in
  let image = String.make Page.page_size 'i' in
  let lsns = ref [] in
  for i = 1 to 40 do
    let pid = 1 + (i mod 4) in
    lsns :=
      Log_manager.append log (page_op ~pid (Log_record.Insert_row { slot = 0; row = "r" }))
      :: !lsns;
    if i mod 7 = 0 then
      lsns := Log_manager.append log (page_op ~pid (Log_record.Full_image { image })) :: !lsns;
    if i mod 11 = 0 then
      lsns :=
        Log_manager.append log
          (Log_record.make
             (Log_record.Checkpoint { wall_us = 0.0; active_txns = []; dirty_pages = [] }))
        :: !lsns
  done;
  let all = List.rev !lsns in
  Log_manager.truncate_before log (List.nth all 12);
  Log_manager.flush_all log;
  (* A tail of unflushed records vanishes at the crash. *)
  for i = 0 to 5 do
    ignore (Log_manager.append log (page_op ~pid:(1 + (i mod 4)) (Log_record.Full_image { image })))
  done;
  Log_manager.crash log;
  let clock2 = Sim_clock.create () in
  let log2 = Log_manager.create ~clock:clock2 ~media:Media.ram ?segment_bytes () in
  Log_manager.restore_entries log2 (Log_manager.dump_entries log);
  let top = Log_manager.end_lsn log in
  check "same end lsn" true (Lsn.equal top (Log_manager.end_lsn log2));
  for pid = 1 to 4 do
    let p = Page_id.of_int pid in
    let seg l = Array.to_list (Log_manager.chain_segment l p ~from:top ~down_to:Lsn.nil) in
    check "chain index agrees with rebuild" true (seg log = seg log2);
    List.iter
      (fun after ->
        check "fpi directory agrees with rebuild" true
          (Log_manager.earliest_fpi_after log p ~after
          = Log_manager.earliest_fpi_after log2 p ~after))
      (Lsn.nil :: List.filteri (fun i _ -> i mod 9 = 0) all)
  done;
  check "checkpoint index agrees with rebuild" true
    (checkpoint_lsns ~upto:top log = checkpoint_lsns ~upto:top log2)

let test_indexes_agree_after_truncate_and_crash () = indexes_agree_after_truncate_and_crash ()

(* The same invariant with 256-byte segments, so truncation drops whole
   segments, the crash rolls the tail back across segment boundaries, and
   the restore re-seals as it replays. *)
let test_indexes_agree_tiny_segments () =
  indexes_agree_after_truncate_and_crash ~segment_bytes:256 ()

(* --- segmented storage --- *)

(* Seal/spill lifecycle: appends land in a RAM tail, sealing prices one
   sequential write and evicts the payload from modeled residency, and
   reads of spilled history still work (and count as cold loads). *)
let test_segment_lifecycle () =
  (* A starved block cache (two 256 B blocks) so reads of spilled
     history actually fault blocks back in. *)
  let clock, log = mk_log ~media:Media.ssd ~cache_blocks:2 ~block_bytes:256 ~segment_bytes:256 () in
  let r = page_op (Log_record.Insert_row { slot = 0; row = String.make 40 'x' }) in
  let t0 = Sim_clock.now_us clock in
  let lsns = Array.init 64 (fun _ -> Log_manager.append log r) in
  let st = Log_manager.segment_stats log in
  check "history spans several segments" true (st.Log_manager.ss_live > 4);
  check_int "segment_count agrees" (Log_manager.segment_count log) st.Log_manager.ss_live;
  check "segments sealed" true (st.Log_manager.ss_sealed > 0);
  check_int "sealed segments spilled" st.Log_manager.ss_sealed st.Log_manager.ss_spilled;
  check "sealing priced as writes" true (Sim_clock.now_us clock > t0);
  check_int "seal threshold" 256 (Log_manager.segment_size log);
  (* Spilled payload left modeled RAM: residency is the tail plus index
     overhead, far below the appended volume's payload. *)
  check "resident excludes spilled payload" true
    (st.Log_manager.ss_payload_bytes < Log_manager.total_appended_bytes log);
  check_int "resident = payload + indexes"
    (st.Log_manager.ss_payload_bytes + st.Log_manager.ss_index_bytes)
    (Log_manager.resident_bytes log);
  Log_manager.flush_all log;
  (* Every record reads back across segment boundaries, single and batched. *)
  Array.iter (fun l -> check "read crosses segments" true (Log_manager.read log l = r)) lsns;
  let g = Option.get (Log_manager.gather_batch log [| Array.copy lsns |]).Log_manager.b_pages.(0) in
  check_int "batched read count" (Array.length lsns) (Array.length g.Log_manager.g_blob);
  Array.iteri
    (fun k blob ->
      let r' = Log_record.decode (Bytes.sub_string blob g.g_pos.(k) g.g_len.(k)) in
      check "batched read crosses segments" true (r' = r))
    g.Log_manager.g_blob;
  let n = ref 0 in
  Log_manager.iter_range_peek log ~from:lsns.(0) ~upto:(Log_manager.end_lsn log) (fun _ _ decode ->
      ignore (decode ());
      incr n);
  check_int "scan crosses segments" (Array.length lsns) !n;
  check "cold reads of spilled segments counted" true
    ((Log_manager.segment_stats log).Log_manager.ss_loaded > 0)

(* Regression: append must stay amortized O(1).  The pre-segmentation log
   rebuilt the LSN hashtable on every buffer growth, so a 4x record count
   cost ~16x the time; per-segment sorted offset arrays grow by doubling
   with no rebuild.  Wall-clock bound is deliberately loose (12x for 4x
   work, plus absolute slack) to stay robust against timer noise. *)
let append_wall_time n =
  let _, log = mk_log ~media:Media.ram () in
  let r = page_op (Log_record.Insert_row { slot = 0; row = String.make 64 'r' }) in
  let t0 = Sys.time () in
  for _ = 1 to n do
    ignore (Log_manager.append log r)
  done;
  Sys.time () -. t0

let test_append_amortized () =
  let best f = min (f ()) (f ()) in
  let t_small = best (fun () -> append_wall_time 50_000) in
  let t_large = best (fun () -> append_wall_time 200_000) in
  if t_large > (t_small *. 12.0) +. 0.05 then
    Alcotest.failf "append not amortized O(1): 50k took %.3fs, 200k took %.3fs" t_small t_large

(* Truncation must invalidate the block cache's view: a dropped LSN raises
   Log_truncated even when its blocks were warm. *)
let test_truncate_invalidates_caches () =
  let _, log = mk_log ~segment_bytes:128 () in
  let r = Log_record.make Log_record.Begin in
  let lsns = List.init 20 (fun _ -> Log_manager.append log r) in
  Log_manager.flush_all log;
  List.iter (fun l -> ignore (Log_manager.read log l)) lsns;
  let cut = List.nth lsns 10 in
  Log_manager.truncate_before log cut;
  List.iteri
    (fun i l ->
      if i < 10 then
        Alcotest.check_raises "warm dropped lsn raises" (Log_manager.Log_truncated l)
          (fun () -> ignore (Log_manager.read log l))
      else check "retained lsn still reads" true (Log_manager.read log l = r))
    lsns

(* After a crash rolls the tail back, re-appended records reuse the same
   LSNs; reads must return the new records, never stale cached ones. *)
let test_crash_invalidates_caches () =
  let _, log = mk_log ~segment_bytes:128 () in
  let old_r = Log_record.make ~txn:(Txn_id.of_int 7) Log_record.Begin in
  let l0 = Log_manager.append log old_r in
  ignore (Log_manager.read log l0);
  (* warm the caches *)
  Log_manager.crash log;
  check "unflushed record gone" false (Log_manager.mem log l0);
  let new_r = Log_record.make ~txn:(Txn_id.of_int 8) Log_record.Begin in
  let l0' = Log_manager.append log new_r in
  check "crash recycles the lsn" true (Lsn.equal l0 l0');
  check "read returns the new record" true (Log_manager.read log l0' = new_r);
  check "peek returns the new record" true
    ((Log_manager.peek_record log l0').Log_record.p_txn = Txn_id.of_int 8)

(* --- batch gather --- *)

let test_gather_sequentialises () =
  let block_bytes = 65536 in
  let _, log = mk_log ~media:Media.ssd ~cache_blocks:4 ~block_bytes () in
  let image = String.make Page.page_size 'i' in
  let lsns =
    Array.init 64 (fun _ -> Log_manager.append log (page_op (Log_record.Full_image { image })))
  in
  Log_manager.flush_all log;
  (* The tiny cache only retains the newest blocks.  The records inside
     the oldest four (evicted) blocks fit one window: gathering them must
     price the run as one seek plus sequential reads, not one random read
     per block. *)
  let old =
    Array.of_list
      (List.filter
         (fun l -> Lsn.to_int (Log_manager.next_lsn_after log l) - 1 <= 4 * block_bytes)
         (Array.to_list lsns))
  in
  let s0 = Io_stats.copy (Log_manager.stats log) in
  let got = Log_manager.gather_batch log [| old |] in
  let d = Io_stats.diff (Log_manager.stats log) s0 in
  check "gathered" true (Option.is_some got.Log_manager.b_pages.(0));
  check_int "one seek for the contiguous run" 1 d.Io_stats.random_reads;
  check "rest of the run is sequential" true (d.Io_stats.seq_read_bytes > 0);
  (* The run's tail is now cached: reading the newest gathered record
     costs nothing. *)
  let s1 = Io_stats.copy (Log_manager.stats log) in
  ignore (Log_manager.read log old.(Array.length old - 1));
  let d2 = Io_stats.diff (Log_manager.stats log) s1 in
  check_int "gathered tail is cached" 0 d2.Io_stats.random_reads;
  (* An unknown LSN makes only its own page's plan not-ok. *)
  let got = Log_manager.gather_batch log [| [| lsns.(0) |]; [| Lsn.of_int 99999999 |] |] in
  check "neighbour gathered" true (Option.is_some got.Log_manager.b_pages.(0));
  check "unknown lsn: page not gathered" true (Option.is_none got.Log_manager.b_pages.(1))

(* Two pages whose chains interleave in the log, each longer than the
   4-block cache, with a stretch of a third page's records between their
   halves: the batch must charge every block it needs exactly once — a
   block both chains touch is not charged per page, and a chain's head is
   not evicted and re-read by its own tail — and price each run of
   consecutive blocks, capped at the cache capacity, as one seek. *)
let test_gather_charges_each_block_once () =
  let block_bytes = 4096 and cache_blocks = 4 in
  let _, log = mk_log ~media:Media.ssd ~cache_blocks ~block_bytes () in
  let row = String.make 300 'r' in
  let chains = [| ref []; ref [] |] in
  let append pid =
    Log_manager.append log (page_op ~pid (Log_record.Insert_row { slot = 0; row }))
  in
  let interleave n =
    for _ = 1 to n do
      Array.iteri (fun k c -> c := append (k + 1) :: !c) chains
    done
  in
  let filler n =
    for _ = 1 to n do
      ignore (append 9)
    done
  in
  interleave 40;
  filler 60;
  interleave 40;
  (* Push every chain block out of the cache. *)
  filler 200;
  Log_manager.flush_all log;
  let reqs = Array.map (fun c -> Array.of_list (List.rev !c)) chains in
  let blocks = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun l ->
         let last = Lsn.to_int (Log_manager.next_lsn_after log l) - 1 in
         for b = (Lsn.to_int l - 1) / block_bytes to (last - 1) / block_bytes do
           Hashtbl.replace blocks b ()
         done))
    reqs;
  let sorted = List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) blocks []) in
  let distinct = List.length sorted in
  let runs, _, _ =
    List.fold_left
      (fun (runs, prev, len) b ->
        if b = prev + 1 && len < cache_blocks then (runs, b, len + 1) else (runs + 1, b, 1))
      (0, -2, 0) sorted
  in
  check "chains longer than the cache" true (distinct > 2 * cache_blocks);
  check "the gap leaves blocks unneeded" true
    (List.nth sorted (distinct - 1) - List.hd sorted + 1 > distinct);
  let s0 = Io_stats.copy (Log_manager.stats log) in
  let got = Log_manager.gather_batch log reqs in
  let d = Io_stats.diff (Log_manager.stats log) s0 in
  Array.iter (fun g -> check "page gathered" true (Option.is_some g)) got.Log_manager.b_pages;
  check_int "each distinct block charged once" distinct
    (d.Io_stats.log_block_hits + d.Io_stats.log_block_misses);
  check_int "every block was cold" distinct d.Io_stats.log_block_misses;
  check_int "one seek per run" runs d.Io_stats.random_reads;
  check_int "one window per run" runs (Array.length got.Log_manager.b_windows_us);
  check_int "the rest sequential" ((distinct - runs) * block_bytes) d.Io_stats.seq_read_bytes

(* --- the control-record directory --- *)

(* What the directory must hold: every retained Begin, Commit, Abort, End
   and Checkpoint record, found by a header scan of the log itself. *)
let controls_by_scan log =
  let acc = ref [] in
  Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log)
    ~upto:(Log_manager.end_lsn log) (fun lsn pk decode ->
      match pk.Log_record.p_kind with
      | Log_record.K_page_op _ | Log_record.K_clr _ -> ()
      | kind ->
          let wall =
            match (decode ()).Log_record.body with
            | Log_record.Commit { wall_us } | Log_record.Checkpoint { wall_us; _ } -> wall_us
            | _ -> 0.0
          in
          acc := (lsn, kind, pk.Log_record.p_txn, wall) :: !acc);
  List.rev !acc

let controls_by_walk ?(from = Lsn.nil) log =
  let acc = ref [] in
  Log_manager.iter_controls log ~from (fun lsn kind txn wall ->
      acc := (lsn, kind, txn, wall) :: !acc;
      true);
  List.rev !acc

let check_directory what log =
  let expect = controls_by_scan log in
  check (what ^ ": walk equals the scan") true (controls_by_walk log = expect);
  (* A walk from a mid-log LSN is the matching suffix. *)
  (match List.nth_opt expect (List.length expect / 2) with
  | Some (mid, _, _, _) ->
      check (what ^ ": walk from mid-log") true
        (controls_by_walk ~from:mid log
        = List.filter (fun (l, _, _, _) -> Lsn.(l >= mid)) expect)
  | None -> ());
  let ckpts =
    List.rev
      (List.filter_map
         (fun (l, k, _, w) -> if k = Log_record.K_checkpoint then Some (l, w) else None)
         expect)
  in
  check (what ^ ": checkpoint walls") true (walk_checkpoints log = ckpts);
  check (what ^ ": checkpoints up to the end") true
    (checkpoint_lsns ~upto:(Log_manager.end_lsn log) log = List.map fst ckpts);
  expect

(* --- the transaction index --- *)

(* What the txn index must hold: the summaries and resolutions a header
   scan of the retained log yields, as [(txn, resolution, summary)].  A
   transaction whose first retained record carries a backward pointer
   continues below the retention boundary: it gets no summary, so it
   resolves as [`Unknown] rather than as committed with an understated
   write set. *)
let txns_by_scan log =
  let recs = Hashtbl.create 64 in
  Log_manager.iter_range_peek log ~from:(Log_manager.first_lsn log)
    ~upto:(Log_manager.end_lsn log) (fun lsn pk decode ->
      let txn = Txn_id.to_int pk.Log_record.p_txn in
      let wall =
        match pk.Log_record.p_kind with
        | Log_record.K_commit -> (
            match (decode ()).Log_record.body with
            | Log_record.Commit { wall_us } -> wall_us
            | _ -> 0.0)
        | _ -> 0.0
      in
      if not (Txn_id.is_nil pk.Log_record.p_txn) then
        Hashtbl.replace recs txn
          ((lsn, pk, wall) :: Option.value (Hashtbl.find_opt recs txn) ~default:[]));
  Hashtbl.fold
    (fun txn newest_first acc ->
      match List.rev newest_first with
      | ((first, pk0, _) :: _ as recs) when Lsn.is_nil pk0.Log_record.p_prev_txn_lsn ->
          let kinds = List.map (fun (_, pk, _) -> pk.Log_record.p_kind) recs in
          let ops =
            List.filter_map
              (fun (lsn, pk, _) ->
                match pk.Log_record.p_kind with
                | Log_record.K_page_op k | Log_record.K_clr k -> Some (lsn, pk, k)
                | _ -> None)
              recs
          in
          let writes =
            List.fold_left
              (fun ws (lsn, pk, _) ->
                let page = pk.Log_record.p_page in
                if List.exists (fun (p, _) -> Page_id.equal p page) ws then ws
                else ws @ [ (page, lsn) ])
              [] ops
          in
          let commit =
            List.find_opt (fun (_, pk, _) -> pk.Log_record.p_kind = Log_record.K_commit) recs
          in
          let resolution =
            if List.mem Log_record.K_abort kinds then `Aborted
            else if Option.is_some commit then `Committed
            else `Active
          in
          let summary =
            match (resolution, commit) with
            | `Committed, Some (commit_lsn, _, wall) ->
                Some
                  {
                    Log_manager.ts_txn = Txn_id.of_int txn;
                    ts_first_lsn = first;
                    ts_commit_lsn = commit_lsn;
                    ts_commit_wall_us = wall;
                    ts_ops = List.length ops;
                    ts_has_clr =
                      List.exists
                        (fun (_, pk, _) ->
                          match pk.Log_record.p_kind with Log_record.K_clr _ -> true | _ -> false)
                        ops;
                    ts_structural =
                      List.exists
                        (fun (_, _, k) ->
                          match k with
                          | Log_record.K_set_header | Log_record.K_format | Log_record.K_preformat
                          | Log_record.K_full_image ->
                              true
                          | _ -> false)
                        ops;
                    ts_writes = writes;
                  }
            | _ -> None
          in
          (txn, resolution, summary) :: acc
      | _ -> acc)
    recs []

(* Transaction ids the histories below draw from. *)
let txn_ids = List.init 400 Txn_id.of_int

let check_txns what log =
  let expect = txns_by_scan log in
  let summaries =
    List.filter_map (fun (_, _, s) -> s) expect
    |> List.sort (fun a b -> Lsn.compare a.Log_manager.ts_commit_lsn b.Log_manager.ts_commit_lsn)
  in
  check (what ^ ": txn summaries equal the scan") true (Log_manager.txn_summaries log = summaries);
  check (what ^ ": txn resolutions equal the scan") true
    (List.for_all
       (fun txn ->
         Log_manager.txn_resolution log txn
         = match List.find_opt (fun (t, _, _) -> t = Txn_id.to_int txn) expect with
           | Some (_, r, _) -> r
           | None -> `Unknown)
       txn_ids)

(* The index upkeep after an event: the txn index equals the scan, both
   here and in a fresh restore of [dump_entries], whose index footprint
   must match too — except after a truncation through a segment, whose
   dead prefix keeps its entries until the whole segment is dropped. *)
let check_upkeep ?(straddled = false) what log =
  check_txns what log;
  let copy =
    Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram
      ~segment_bytes:(Log_manager.segment_size log) ()
  in
  Log_manager.restore_entries copy (Log_manager.dump_entries log);
  check_txns (what ^ ", restored") copy;
  let index_bytes l = (Log_manager.segment_stats l).Log_manager.ss_index_bytes in
  if not straddled then
    check_int (what ^ ": index bytes equal a fresh restore's") (index_bytes copy) (index_bytes log)

(* Three interleaved transactions per round — one commits, one aborts
   (Abort, then End), one is left open until the next round — with page
   records between and a checkpoint every other round.  Each record
   points back to its transaction's previous one. *)
let control_history log ~rounds ~first_txn =
  let wall = ref (float_of_int (first_txn * 1000)) in
  let last = Hashtbl.create 16 in
  let app ?(txn = Txn_id.nil) body =
    let prev_txn_lsn = Option.value (Hashtbl.find_opt last txn) ~default:Lsn.nil in
    let lsn = Log_manager.append log (Log_record.make ~txn ~prev_txn_lsn body) in
    if not (Txn_id.is_nil txn) then Hashtbl.replace last txn lsn;
    lsn
  in
  let op txn pid =
    ignore
      (app ~txn
         (Log_record.Page_op
            {
              page = Page_id.of_int pid;
              prev_page_lsn = Lsn.nil;
              op = Log_record.Insert_row { slot = 0; row = String.make 20 'r' };
            }))
  in
  let open_txn = ref None in
  for r = 0 to rounds - 1 do
    let t = Txn_id.of_int (first_txn + (3 * r)) in
    let a = Txn_id.of_int (first_txn + (3 * r) + 1) in
    let o = Txn_id.of_int (first_txn + (3 * r) + 2) in
    List.iter (fun x -> ignore (app ~txn:x Log_record.Begin)) [ t; a; o ];
    op t (1 + (r mod 3));
    op a 4;
    op o 5;
    (match !open_txn with
    | Some prev ->
        wall := !wall +. 1.0;
        ignore (app ~txn:prev (Log_record.Commit { wall_us = !wall }))
    | None -> ());
    open_txn := Some o;
    ignore (app ~txn:a Log_record.Abort);
    wall := !wall +. 1.0;
    ignore (app ~txn:t (Log_record.Commit { wall_us = !wall }));
    ignore (app ~txn:a Log_record.End);
    ignore (app ~txn:t Log_record.End);
    if r mod 2 = 1 then begin
      wall := !wall +. 0.5;
      ignore
        (app
           (Log_record.Checkpoint
              { wall_us = !wall; active_txns = [ (o, Lsn.nil) ]; dirty_pages = [] }))
    end
  done

(* A log whose retention cut falls inside a committed transaction's
   chain: T1 writes pages 3 and 4 and commits, T2 writes page 5 and
   commits, T3 writes page 6 and stays open.  Cutting between T1's two
   writes leaves T1 unknown (not committed with one write), T2 whole and
   T3 in flight. *)
let test_txn_index_boundary () =
  let _, log = mk_log () in
  let t1 = Txn_id.of_int 1 and t2 = Txn_id.of_int 2 and t3 = Txn_id.of_int 3 in
  let app r = Log_manager.append log r in
  let ins = Log_record.Insert_row { slot = 0; row = "x" } in
  let pop ~txn ~prev_txn pid =
    app
      (Log_record.make ~txn ~prev_txn_lsn:prev_txn
         (Log_record.Page_op { page = Page_id.of_int pid; prev_page_lsn = Lsn.nil; op = ins }))
  in
  let b1 = app (Log_record.make ~txn:t1 Log_record.Begin) in
  let o1a = pop ~txn:t1 ~prev_txn:b1 3 in
  let o1b = pop ~txn:t1 ~prev_txn:o1a 4 in
  ignore (app (Log_record.make ~txn:t1 ~prev_txn_lsn:o1b (Log_record.Commit { wall_us = 1.0 })));
  let b2 = app (Log_record.make ~txn:t2 Log_record.Begin) in
  let o2 = pop ~txn:t2 ~prev_txn:b2 5 in
  ignore (app (Log_record.make ~txn:t2 ~prev_txn_lsn:o2 (Log_record.Commit { wall_us = 2.0 })));
  let b3 = app (Log_record.make ~txn:t3 Log_record.Begin) in
  ignore (pop ~txn:t3 ~prev_txn:b3 6);
  Log_manager.flush_all log;
  check_upkeep "appended" log;
  check "t3 is in flight" true (Log_manager.txn_resolution log t3 = `Active);
  Log_manager.crash log;
  check_upkeep "crashed" log;
  Log_manager.truncate_before log o1b;
  check_upkeep ~straddled:true "straddled" log;
  let summaries = Log_manager.txn_summaries log in
  check "straddling T1 has no summary" true
    (not (List.exists (fun s -> Txn_id.equal s.Log_manager.ts_txn t1) summaries));
  check "T1 resolves as unknown, not as committed-with-partial-writes" true
    (Log_manager.txn_resolution log t1 = `Unknown);
  (match List.find_opt (fun s -> Txn_id.equal s.Log_manager.ts_txn t2) summaries with
  | Some s -> check_int "fully retained T2 keeps its whole write set" 1 (List.length s.Log_manager.ts_writes)
  | None -> Alcotest.fail "T2 missing from the index");
  check "open T3 still resolves as in flight" true (Log_manager.txn_resolution log t3 = `Active)

(* The directory and the txn index are kept on every ingestion path and
   cut back on every tail drop and truncation: after each event a walk
   (and the checkpoint views built on it) equals a header scan of what
   the log retains, and so do the txn summaries and resolutions. *)
let test_control_directory_upkeep () =
  test_txn_index_boundary ();
  let tears = ref 0 in
  (* Seeds whose crash tears a record (the tear draws from the plan's
     PRNG), at varying cuts through the torn record. *)
  for seed = 1 to 20 do
    let clock = Sim_clock.create () in
    let plan = Rw_storage.Fault_plan.create ~torn_log_tail_rate:1.0 ~seed () in
    let log =
      Log_manager.create ~clock ~media:Media.ram ~segment_bytes:512 ~fault_plan:plan ()
    in
    control_history log ~rounds:12 ~first_txn:1;
    Log_manager.flush_all log;
    ignore (check_directory "appended" log);
    check_upkeep "appended" log;
    (* Crash with an unflushed tail: a prefix survives, its last record
       torn; recovery's CRC scan cuts the log there. *)
    control_history log ~rounds:3 ~first_txn:100;
    Log_manager.crash log;
    (match Log_manager.repair_tail log with Some _ -> incr tears | None -> ());
    ignore (check_directory "torn tail repaired" log);
    check_upkeep "torn tail repaired" log;
    (* A crash with no tear drops the unflushed tail record by record. *)
    control_history log ~rounds:2 ~first_txn:200;
    let plain = Log_manager.create ~clock ~media:Media.ram ~segment_bytes:512 () in
    Log_manager.restore_entries plain (Log_manager.dump_entries log);
    ignore (check_directory "restored" plain);
    check_upkeep "restored" plain;
    control_history plain ~rounds:2 ~first_txn:300;
    Log_manager.crash plain;
    ignore (check_directory "unflushed tail removed" plain);
    check_upkeep "unflushed tail removed" plain;
    (* Replication divergence cut: [truncate_from] at a record in the
       middle of the log drops whole segments and part of one. *)
    let lsns = List.map (fun (l, _, _, _) -> l) (controls_by_scan log) in
    let cut = List.nth lsns (2 * List.length lsns / 3) in
    check "truncate_from dropped records" true (Log_manager.truncate_from log cut > 0);
    ignore (check_directory "truncate_from" log);
    check_upkeep "truncate_from" log;
    (* Retention through a straddling segment: the cut lies strictly
       inside a segment, whose entries below it must be invisible. *)
    let low = List.nth lsns (List.length lsns / 3) in
    Log_manager.truncate_before log (Log_manager.next_lsn_after log low);
    let after = check_directory "truncate_before" log in
    check_upkeep ~straddled:true "truncate_before" log;
    check "the cut leaves a straddling transaction" true
      (List.exists
         (fun (_, kind, txn, _) ->
           kind = Log_record.K_commit && Log_manager.txn_resolution log txn = `Unknown)
         after);
    check "nothing below the retention boundary" true
      (List.for_all (fun (l, _, _, _) -> Lsn.(l >= Log_manager.first_lsn log)) after);
    check "a walk from below the boundary starts at it" true
      (controls_by_walk ~from:Lsn.nil log = controls_by_walk ~from:low log);
    (* A replica's copy, shipped segment by segment. *)
    let replica =
      Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram ~segment_bytes:512 ()
    in
    let rec ship from =
      match Log_manager.export_from log ~from with
      | Some ex ->
          ignore (Log_manager.ingest_entries replica ex.Log_manager.ex_entries);
          ship ex.Log_manager.ex_next
      | None -> ()
    in
    Log_manager.flush_all log;
    ship (Log_manager.first_lsn log);
    check "replica directory equals the primary's" true
      (check_directory "ingested" replica = controls_by_walk log);
    check_upkeep "ingested" replica
  done;
  check "some seed tore the tail" true (!tears > 0)

(* A saved and reloaded database rebuilds the directory from the dumped
   entries ([restore_entries]). *)
let test_control_directory_save_load () =
  let module Database = Rw_engine.Database in
  let module Row = Rw_engine.Row in
  let module Schema = Rw_catalog.Schema in
  let clock = Sim_clock.create () in
  let db = Database.create ~name:"dir" ~clock ~media:Media.ram ~log_segment_bytes:2048 () in
  let cols =
    [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Int } ]
  in
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  for i = 1 to 40 do
    Sim_clock.advance_us clock 1000.0;
    Database.with_txn db (fun txn ->
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int i); Row.Int 0L ]);
    if i mod 10 = 0 then ignore (Database.checkpoint db)
  done;
  let path = Filename.temp_file "rewind_dir" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Database.save db ~path;
      let saved = check_directory "saved" (Database.log db) in
      let db2 =
        Database.load ~clock:(Sim_clock.create ()) ~media:Media.ram ~log_segment_bytes:2048 ~path ()
      in
      let loaded = check_directory "loaded" (Database.log db2) in
      check "loaded directory starts with the saved one" true
        (List.filteri (fun i _ -> i < List.length saved) loaded = saved);
      check_txns "loaded" (Database.log db2);
      check "loaded txn summaries equal the saved ones" true
        (Log_manager.txn_summaries (Database.log db2) = Log_manager.txn_summaries (Database.log db)))

(* --- where bytes enter: the CRC is checked there, once --- *)

(* Everything a reader of [log] can reach through its indexes and
   lookups, for comparing a log before and after a refused ingest. *)
let log_state log =
  let top = Lsn.of_int max_int in
  let pages = List.init 6 Page_id.of_int in
  ( Log_manager.dump_entries log,
    Log_manager.end_lsn log,
    Log_manager.flushed_lsn log,
    Log_manager.segment_stats log,
    controls_by_walk log,
    Log_manager.txn_summaries log,
    List.map (fun p -> Log_manager.chain_segment log p ~from:top ~down_to:Lsn.nil) pages,
    List.map (fun p -> Log_manager.earliest_fpi_after log p ~after:Lsn.nil) pages )

(* A primary with transactions, checkpoints and page images, and a
   replica that holds its first shipments; [next] is the next shipment. *)
let shipping_pair =
  lazy
    (let primary =
       Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram ~segment_bytes:2048 ()
     in
     let page = Page.create ~id:(Page_id.of_int 2) ~typ:Page.Heap in
     for round = 0 to 3 do
       control_history primary ~rounds:3 ~first_txn:(1 + (round * 20));
       ignore
         (Log_manager.append_image primary ~page:(Page_id.of_int (2 + round)) ~prev_page_lsn:Lsn.nil
            page)
     done;
     Log_manager.flush_all primary;
     let replica =
       Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram ~segment_bytes:2048 ()
     in
     let rec ship from n =
       match Log_manager.export_from primary ~from with
       | Some ex when n > 0 ->
           ignore (Log_manager.ingest_entries replica ex.Log_manager.ex_entries);
           ship ex.Log_manager.ex_next (n - 1)
       | _ -> from
     in
     let from = ship (Log_manager.first_lsn primary) 2 in
     let rec rest from acc =
       match Log_manager.export_from primary ~from with
       | Some ex -> rest ex.Log_manager.ex_next (ex :: acc)
       | None -> List.rev acc
     in
     (replica, rest from []))

let flip_byte data ~at ~x =
  let b = Bytes.of_string data in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x));
  Bytes.to_string b

(* A replica refuses a shipment in which one byte of one record is
   flipped, whole: it raises before placing any record, and its log and
   every index stay exactly as they were. *)
let ingest_refusal_prop =
  QCheck.Test.make ~name:"a shipment with a flipped byte is refused whole" ~count:200
    QCheck.(quad small_nat small_nat (int_bound 100_000) (int_range 1 255))
    (fun (u, e, off, x) ->
      let replica, shipments = Lazy.force shipping_pair in
      let ex = List.nth shipments (u mod List.length shipments) in
      let entries = ex.Log_manager.ex_entries in
      let e = e mod List.length entries in
      let bad =
        List.mapi
          (fun i (lsn, data) ->
            if i = e then (lsn, flip_byte data ~at:(off mod String.length data) ~x) else (lsn, data))
          entries
      in
      let before = log_state replica in
      match Log_manager.ingest_entries replica bad with
      | _ -> false
      | exception Log_record.Corrupt_record -> log_state replica = before)

(* The clean shipments still apply after any number of refusals. *)
let test_ingest_after_refusal () =
  let replica, shipments = Lazy.force shipping_pair in
  List.iter
    (fun ex ->
      check "clean shipment applies" true
        (Log_manager.ingest_entries replica ex.Log_manager.ex_entries > 0))
    shipments;
  check_txns "ingested after refusals" replica

(* The window after [crash] tears the tail and before [repair_tail]: the
   torn stump stays listed in its segment, but it is in no chain, image or
   control index, and no lookup reaches it — [read], [peek_record], [mem]
   and [gather_batch] of its LSN raise (or report it missing) without
   decoding it.  With no CRC on every read, this is what keeps a stump's
   bytes from being parsed.  [repair_tail] then truncates the log at it. *)
let test_torn_stump_unreachable () =
  let tears = ref 0 in
  for seed = 1 to 24 do
    let plan = Rw_storage.Fault_plan.create ~torn_log_tail_rate:1.0 ~seed () in
    let log =
      Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram ~segment_bytes:512
        ~fault_plan:plan ()
    in
    control_history log ~rounds:2 ~first_txn:1;
    Log_manager.flush_all log;
    let flushed = Log_manager.end_lsn log in
    (* An unflushed tail of page records, images and control records. *)
    let page = Page.create ~id:(Page_id.of_int 2) ~typ:Page.Heap in
    let tail = ref [] in
    let note l = tail := l :: !tail in
    for i = 0 to 5 do
      note
        (Log_manager.append log
           (page_op ~pid:(1 + (i mod 3)) (Log_record.Insert_row { slot = 0; row = "tail row" })));
      if i mod 2 = 0 then
        note (Log_manager.append_image log ~page:(Page_id.of_int 2) ~prev_page_lsn:Lsn.nil page);
      note
        (Log_manager.append log
           (Log_record.make ~txn:(Txn_id.of_int (50 + i)) (Log_record.Commit { wall_us = 1.0 })))
    done;
    let tail = List.rev !tail in
    Log_manager.crash log;
    let end_ = Log_manager.end_lsn log in
    if Lsn.(end_ > flushed) && not (List.exists (Lsn.equal end_) tail) then begin
      incr tears;
      let stump = List.fold_left (fun a l -> if Lsn.(l < end_) then l else a) flushed tail in
      let before = List.filter (fun l -> Lsn.(l < stump)) tail in
      let top = Lsn.of_int max_int in
      for p = 0 to 5 do
        let pid = Page_id.of_int p in
        check "stump in no chain" false
          (Array.exists (Lsn.equal stump)
             (Log_manager.chain_segment log pid ~from:top ~down_to:Lsn.nil));
        check "stump in no image index" true
          (Log_manager.earliest_fpi_after log pid ~after:(Lsn.of_int (Lsn.to_int stump - 1))
          <> Some stump)
      done;
      check "stump in no control index" false
        (List.exists (fun (l, _, _, _) -> Lsn.equal l stump) (controls_by_walk log));
      let s0 = Io_stats.copy (Log_manager.stats log) in
      Alcotest.check_raises "read of the stump raises" (Log_manager.No_such_record stump)
        (fun () -> ignore (Log_manager.read log stump));
      Alcotest.check_raises "peek of the stump raises" (Log_manager.No_such_record stump)
        (fun () -> ignore (Log_manager.peek_record log stump));
      check "stump is no record" false (Log_manager.mem log stump);
      let got = Log_manager.gather_batch log [| [| stump |] |] in
      check "gather of the stump finds nothing" true (got.Log_manager.b_pages.(0) = None);
      check_int "the stump was never decoded or handed over" 0
        (Io_stats.diff (Log_manager.stats log) s0).Io_stats.log_record_misses;
      (match List.rev before with
      | prev :: _ ->
          (* Located by the gather's finger from the record before it. *)
          let got = Log_manager.gather_batch log [| [| prev; stump |] |] in
          check "gather through to the stump finds nothing" true
            (got.Log_manager.b_pages.(0) = None);
          ignore (Log_manager.read log prev : Log_record.t)
      | [] -> ());
      match Log_manager.repair_tail log with
      | Some (cut, dropped) ->
          check "repair truncates at the stump" true (Lsn.equal cut stump);
          check "repair drops the stump" true (dropped >= 1);
          check "log ends at the stump" true (Lsn.equal (Log_manager.end_lsn log) stump);
          check_upkeep "repaired" log
      | None -> Alcotest.fail "repair_tail missed the torn stump"
    end
  done;
  check "some seed tore a record" true (!tears > 0)

let () =
  Alcotest.run "wal"
    [
      ("codec", [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip ]);
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru;
        ] );
      ( "records",
        [
          Alcotest.test_case "all kinds roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "peek agrees with decode" `Quick test_peek_matches_decode;
          QCheck_alcotest.to_alcotest record_roundtrip_prop;
          Alcotest.test_case "invert involution" `Quick test_invert_involution;
          Alcotest.test_case "redo/undo inverse" `Quick test_redo_undo_inverse;
          QCheck_alcotest.to_alcotest kernel_prop;
        ] );
      ( "log_manager",
        [
          Alcotest.test_case "append and read" `Quick test_append_read;
          Alcotest.test_case "lsn = offset" `Quick test_lsn_is_offset;
          Alcotest.test_case "flush and crash" `Quick test_flush_crash;
          Alcotest.test_case "range iteration" `Quick test_iter_range;
          Alcotest.test_case "truncation" `Quick test_truncate;
          Alcotest.test_case "block cache costs" `Quick test_cache_misses_cost;
          Alcotest.test_case "fpi directory" `Quick test_fpi_directory;
          Alcotest.test_case "image appended and restored in place" `Quick test_append_image;
          Alcotest.test_case "checkpoint index" `Quick test_checkpoints_before;
          Alcotest.test_case "control directory upkeep" `Quick test_control_directory_upkeep;
          Alcotest.test_case "control directory save/load" `Quick test_control_directory_save_load;
          Alcotest.test_case "truncation prunes indexes" `Quick test_truncate_prunes_indexes;
          Alcotest.test_case "mid-record lsn rejected" `Quick test_read_non_boundary;
          Alcotest.test_case "byte accounting" `Quick test_total_bytes_accounting;
          Alcotest.test_case "chain segments" `Quick test_chain_segment;
          Alcotest.test_case "segment lifecycle" `Quick test_segment_lifecycle;
          Alcotest.test_case "append amortized O(1)" `Quick test_append_amortized;
          Alcotest.test_case "truncate invalidates caches" `Quick test_truncate_invalidates_caches;
          Alcotest.test_case "crash invalidates caches" `Quick test_crash_invalidates_caches;
          Alcotest.test_case "indexes agree with rebuild (tiny segments)" `Quick
            test_indexes_agree_tiny_segments;
          Alcotest.test_case "indexes agree with rebuild" `Quick
            test_indexes_agree_after_truncate_and_crash;
          Alcotest.test_case "gather sequentialises" `Quick test_gather_sequentialises;
          Alcotest.test_case "gather charges each block once" `Quick
            test_gather_charges_each_block_once;
          Alcotest.test_case "torn stump unreachable" `Quick test_torn_stump_unreachable;
        ] );
      ( "ingest",
        [
          QCheck_alcotest.to_alcotest ingest_refusal_prop;
          Alcotest.test_case "clean shipments apply after refusals" `Quick test_ingest_after_refusal;
        ] );
    ]
