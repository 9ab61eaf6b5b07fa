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

(* --- page ownership: a model of what every fetch must return --- *)

(* Random modify / read / flush / drop_all / reopen sequences over one
   disk through a four-frame pool, so most fetches evict.  The model keeps
   each page's durable image and its current one as strings; frames,
   evictions and recycled buffers must never make a fetched page differ
   from them.  With a fault plan (bit rot, torn writes), a fetch may
   instead raise [Corrupt_page] for the page it reads, which is then
   rewritten from the model. *)
type model_op = Modify of int * int | Read of int | Flush | Drop | Reopen

let model_pages = 8

let model_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun i v -> Modify (i, v)) (int_bound (model_pages - 1)) (int_bound 255));
        (4, map (fun i -> Read i) (int_bound (model_pages - 1)));
        (1, return Flush);
        (1, return Drop);
        (1, return Reopen);
      ])

let show_model_op = function
  | Modify (i, v) -> Printf.sprintf "modify %d %d" i v
  | Read i -> Printf.sprintf "read %d" i
  | Flush -> "flush"
  | Drop -> "drop_all"
  | Reopen -> "reopen"

(* A page image without its checksum field, which a write-back seals in
   place. *)
let view p = Bytes.sub_string p 0 48 ^ Bytes.sub_string p 52 (Page.page_size - 52)

let run_model ~faults (seed, ops) =
  let clock = Sim_clock.create () in
  let plan =
    if faults then
      Some (Rw_storage.Fault_plan.create ~bit_rot_rate:0.05 ~torn_write_rate:0.2 ~seed ())
    else None
  in
  let disk = Disk.create ~clock ~media:Media.ram ?fault_plan:plan () in
  let new_pool () = Buffer_pool.create ~capacity:4 ~source:(Buffer_pool.of_disk disk) () in
  let pool = ref (new_pool ()) in
  let pid i = Page_id.of_int i in
  let durable = Array.init model_pages (fun i -> view (Page.create ~id:(pid i) ~typ:Page.Free)) in
  let current = Array.copy durable in
  let dirty = Array.make model_pages false in
  let resident = Array.make model_pages false in
  let lsn = ref 0 in
  let forget_all () =
    Array.blit durable 0 current 0 model_pages;
    Array.fill dirty 0 model_pages false;
    Array.fill resident 0 model_pages false
  in
  (* A damaged page is rewritten from the model, as a repair would. *)
  let rewrite i =
    let img = Bytes.of_string (String.sub durable.(i) 0 48 ^ "\000\000\000\000") in
    let img = Bytes.cat img (Bytes.of_string (String.sub durable.(i) 48 (Page.page_size - 52))) in
    Page.seal img;
    Disk.write_page_nocost disk (pid i) img
  in
  (* Frames the pool evicted were written back if dirty; a miss evicts
     before it reads, so also when the read then fails. *)
  let note_evictions i =
    Array.iteri
      (fun j r ->
        if r && j <> i && Buffer_pool.resident_lsn !pool (pid j) = None then begin
          if dirty.(j) then durable.(j) <- current.(j);
          dirty.(j) <- false;
          resident.(j) <- false
        end)
      resident
  in
  let fetch i =
    match Buffer_pool.fetch !pool (pid i) with
    | f ->
        note_evictions i;
        resident.(i) <- true;
        if view (Buffer_pool.page f) <> current.(i) then
          QCheck.Test.fail_reportf "page %d differs from the model" i;
        Some f
    | exception Disk.Corrupt_page p when faults && Page_id.to_int p = i ->
        note_evictions i;
        rewrite i;
        None
  in
  List.iter
    (fun op ->
      match op with
      | Modify (i, v) -> (
          match fetch i with
          | None -> ()
          | Some f ->
              let p = Buffer_pool.page f in
              Bytes.fill p (Page.header_size + (v * 29)) 40 (Char.chr v);
              incr lsn;
              Page.set_lsn p (Lsn.of_int !lsn);
              Buffer_pool.mark_dirty !pool f ~lsn:(Lsn.of_int !lsn);
              Buffer_pool.unpin !pool f;
              current.(i) <- view p;
              dirty.(i) <- true)
      | Read i -> Option.iter (Buffer_pool.unpin !pool) (fetch i)
      | Flush ->
          Buffer_pool.flush_all !pool;
          Array.iteri (fun i d -> if d then durable.(i) <- current.(i)) dirty;
          Array.fill dirty 0 model_pages false
      | Drop ->
          Buffer_pool.drop_all !pool;
          forget_all ()
      | Reopen ->
          Buffer_pool.drop_all !pool;
          ignore (Disk.apply_crash disk : int);
          pool := new_pool ();
          forget_all ())
    ops;
  (* Finally every page reads back as the model says. *)
  for i = 0 to model_pages - 1 do
    Option.iter (Buffer_pool.unpin !pool) (fetch i)
  done;
  true

let model_arb =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_model_op ops)))
    QCheck.Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 80) model_op_gen))

let model_test =
  QCheck.Test.make ~name:"fetched pages equal a string model" ~count:200 model_arb
    (run_model ~faults:false)

let model_faults_test =
  QCheck.Test.make ~name:"fetched pages equal a string model under bit rot and torn writes"
    ~count:200 model_arb (run_model ~faults:true)

(* --- frame bookkeeping: the pool against a reference map --- *)

(* Random fetch / hold / dirty / admit / flush / drop sequences against a
   map from page id to (recency tick, page LSN, recovery LSN of a dirty
   frame, pins).  Pools of 1-6 frames, so most misses evict; page ids are
   drawn near multiples of the table size (the smallest power of two at
   least twice the capacity) and above it, so home slots collide and probe
   runs wrap past the end of the table.  After every step the resident set
   and each page's LSN ([resident_at], [resident_lsn]), the hit and miss
   counts, the dirty page table and the writes made so far (page id and
   random or sequential, in order) must equal the model's. *)
type frame_op =
  | Get of int
  | Hold of int
  | Unhold
  | Dirty of int
  | Admit of int
  | Flush_all
  | Drop_all

let show_frame_op = function
  | Get i -> Printf.sprintf "get %d" i
  | Hold i -> Printf.sprintf "hold %d" i
  | Unhold -> "unhold"
  | Dirty i -> Printf.sprintf "dirty %d" i
  | Admit i -> Printf.sprintf "admit %d" i
  | Flush_all -> "flush_all"
  | Drop_all -> "drop_all"

let table_size capacity =
  let n = ref 2 in
  while !n < 2 * capacity do
    n := 2 * !n
  done;
  !n

let frame_case_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun capacity ->
    let size = table_size capacity in
    let pid =
      frequency
        [
          (3, map2 (fun k d -> (k * size) + d) (int_bound 3) (int_bound 2));
          (2, map (fun d -> size - 1 - d) (int_bound 1));
          (2, int_bound (4 * size));
        ]
    in
    let op =
      frequency
        [
          (4, map (fun i -> Get i) pid);
          (1, map (fun i -> Hold i) pid);
          (1, return Unhold);
          (4, map (fun i -> Dirty i) pid);
          (2, map (fun i -> Admit i) pid);
          (1, return Flush_all);
          (1, return Drop_all);
        ]
    in
    map (fun ops -> (capacity, ops)) (list_size (int_range 1 120) op))

type model_frame = { mutable used : int; mutable lsn : int; mutable rec_lsn : int; mutable pins : int }

let run_frame_model (capacity, ops) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (* The source: each page's durable LSN, and a log of the writes. *)
  let durable = Hashtbl.create 16 in
  let stored i = Option.value (Hashtbl.find_opt durable i) ~default:0 in
  let writes = ref [] in
  let image pid =
    let p = Page.create ~id:pid ~typ:Page.Heap in
    Page.set_lsn p (Lsn.of_int (stored (Page_id.to_int pid)));
    p
  in
  let written kind pid p =
    writes := (Page_id.to_int pid, kind) :: !writes;
    Hashtbl.replace durable (Page_id.to_int pid) (Lsn.to_int (Page.lsn p))
  in
  let source =
    {
      Buffer_pool.read = image;
      write = written `Rand;
      write_seq = Some (written `Seq);
      read_cached = None;
    }
  in
  let pool = Buffer_pool.create ~capacity ~source () in
  let model = Hashtbl.create 16 in
  let tick = ref 0 and hits = ref 0 and misses = ref 0 and next_lsn = ref 0 in
  (* The model's own durable LSNs and writes. *)
  let mdurable = Hashtbl.create 16 in
  let mstored i = Option.value (Hashtbl.find_opt mdurable i) ~default:0 in
  let expected_writes = ref [] in
  let write_back i m kind =
    expected_writes := (i, kind) :: !expected_writes;
    Hashtbl.replace mdurable i m.lsn;
    m.rec_lsn <- 0
  in
  let held = ref [] in
  (* A miss: evict the least recently used unpinned frame when full, or
     expect the pool to refuse. *)
  let model_miss i ~pins =
    incr misses;
    if Hashtbl.length model >= capacity then begin
      let victim =
        Hashtbl.fold
          (fun j m acc ->
            match acc with
            | _ when m.pins > 0 -> acc
            | Some (_, v) when v.used < m.used -> acc
            | _ -> Some (j, m))
          model None
      in
      match victim with
      | None -> false
      | Some (j, m) ->
          if m.rec_lsn > 0 then write_back j m `Rand;
          Hashtbl.remove model j;
          Hashtbl.replace model i { used = !tick; lsn = mstored i; rec_lsn = 0; pins };
          true
    end
    else begin
      Hashtbl.replace model i { used = !tick; lsn = mstored i; rec_lsn = 0; pins };
      true
    end
  in
  (* Fetch [i] in both; [Some frame] pinned, or [None] when every frame
     is pinned (the pool must then raise). *)
  let get i =
    incr tick;
    let expect =
      match Hashtbl.find_opt model i with
      | Some m ->
          incr hits;
          m.used <- !tick;
          m.pins <- m.pins + 1;
          true
      | None -> model_miss i ~pins:1
    in
    match Buffer_pool.fetch pool (Page_id.of_int i) with
    | f ->
        if not expect then fail "fetch %d: the model has every frame pinned" i;
        Some f
    | exception Failure _ ->
        if expect then fail "fetch %d raised" i;
        None
  in
  let release f i =
    (Hashtbl.find model i).pins <- (Hashtbl.find model i).pins - 1;
    Buffer_pool.unpin pool f
  in
  let check_state step =
    let universe = Hashtbl.create 16 in
    List.iter
      (function
        | Get i | Hold i | Dirty i | Admit i -> Hashtbl.replace universe i () | _ -> ())
      ops;
    Hashtbl.iter
      (fun i () ->
        let pid = Page_id.of_int i in
        match Hashtbl.find_opt model i with
        | Some m ->
            if not (Buffer_pool.resident_at pool pid (Lsn.of_int m.lsn)) then
              fail "%s: page %d not resident at LSN %d" step i m.lsn;
            if Buffer_pool.resident_lsn pool pid <> Some (Lsn.of_int m.lsn) then
              fail "%s: resident_lsn of page %d" step i
        | None ->
            if Buffer_pool.resident_lsn pool pid <> None then
              fail "%s: page %d resident, not in the model" step i)
      universe;
    if Buffer_pool.resident pool <> Hashtbl.length model then
      fail "%s: %d resident, model %d" step (Buffer_pool.resident pool) (Hashtbl.length model);
    if Buffer_pool.hits pool <> !hits || Buffer_pool.misses pool <> !misses then
      fail "%s: hits/misses %d/%d, model %d/%d" step (Buffer_pool.hits pool)
        (Buffer_pool.misses pool) !hits !misses;
    let table =
      List.map (fun (p, l) -> (Page_id.to_int p, Lsn.to_int l)) (Buffer_pool.dirty_page_table pool)
    in
    let want =
      Hashtbl.fold (fun i m acc -> if m.rec_lsn > 0 then (i, m.rec_lsn) :: acc else acc) model []
      |> List.sort compare
    in
    if table <> want then fail "%s: dirty page table differs from the model" step;
    if !writes <> !expected_writes then fail "%s: writes differ from the model" step
  in
  List.iter
    (fun op ->
      (match op with
      | Get i -> Option.iter (fun f -> release f i) (get i)
      | Hold i -> Option.iter (fun f -> held := (f, i) :: !held) (get i)
      | Unhold ->
          List.iter (fun (f, i) -> release f i) !held;
          held := []
      | Dirty i ->
          Option.iter
            (fun f ->
              incr next_lsn;
              let m = Hashtbl.find model i in
              m.lsn <- !next_lsn;
              if m.rec_lsn = 0 then m.rec_lsn <- !next_lsn;
              Page.set_lsn (Buffer_pool.page f) (Lsn.of_int !next_lsn);
              Buffer_pool.mark_dirty pool f ~lsn:(Lsn.of_int !next_lsn);
              release f i)
            (get i)
      | Admit i ->
          let expect =
            Hashtbl.mem model i
            || begin
              incr tick;
              model_miss i ~pins:0
            end
          in
          let page = image (Page_id.of_int i) in
          (match Buffer_pool.admit pool (Page_id.of_int i) page with
          | () -> if not expect then fail "admit %d: the model has every frame pinned" i
          | exception Failure _ -> if expect then fail "admit %d raised" i);
      | Flush_all ->
          (* Page-id order; a page right after the previous one is a
             sequential write. *)
          let dirty =
            Hashtbl.fold (fun i m acc -> if m.rec_lsn > 0 then i :: acc else acc) model []
            |> List.sort compare
          in
          ignore
            (List.fold_left
               (fun prev i ->
                 write_back i (Hashtbl.find model i)
                   (if prev >= 0 && i = prev + 1 then `Seq else `Rand);
                 i)
               (-1) dirty);
          Buffer_pool.flush_all pool
      | Drop_all -> (
          match Buffer_pool.drop_all pool with
          | () ->
              if !held <> [] then fail "drop_all with pinned frames";
              Hashtbl.reset model
          | exception Failure _ -> if !held = [] then fail "drop_all raised"));
      check_state (show_frame_op op))
    ops;
  true

let frame_model_test =
  QCheck.Test.make ~name:"frame table and dirty set equal a reference map" ~count:500
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map show_frame_op ops)))
       frame_case_gen)
    run_frame_model

(* The pool's empty slots all hold one frame made when the module starts,
   so it is old by the time a pool is created: filling a table of 2,048
   slots with it does not force a minor collection, as filling an array
   of more than 256 words with a young value does. *)
let test_create_no_minor_gc () =
  let source =
    Buffer_pool.of_disk (Disk.create ~clock:(Sim_clock.create ()) ~media:Media.ram ())
  in
  ignore (Buffer_pool.create ~capacity:1024 ~source ());
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let pool = Buffer_pool.create ~capacity:1024 ~source () in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check_int "capacity" 1024 (Buffer_pool.capacity pool);
  check_int "minor collections during create" 0 (after - before)

(* Dropping the pool gives its frames' buffers back: on a fresh domain
   (an empty free list), the next read lands in the dropped frame's
   buffer. *)
let test_drop_all_recycles () =
  Domain.join
    (Domain.spawn (fun () ->
         let disk, pool = mk () in
         let f = Buffer_pool.fetch pool (Page_id.of_int 0) in
         let frame_page = Buffer_pool.page f in
         Buffer_pool.unpin pool f;
         Buffer_pool.drop_all pool;
         let next = Disk.read_page disk (Page_id.of_int 1) in
         check "the next read reuses the dropped frame's buffer" true (next == frame_page);
         check_int "and holds the page read" 1 (Page_id.to_int (Page.id next))))

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
          Alcotest.test_case "drop_all recycles frames" `Quick test_drop_all_recycles;
          QCheck_alcotest.to_alcotest model_test;
          QCheck_alcotest.to_alcotest model_faults_test;
          QCheck_alcotest.to_alcotest frame_model_test;
          Alcotest.test_case "create forces no minor collection" `Quick test_create_no_minor_gc;
        ] );
    ]
