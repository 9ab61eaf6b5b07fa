module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Lock_manager = Rw_txn.Lock_manager
module Txn_manager = Rw_txn.Txn_manager
module Access_ctx = Rw_access.Access_ctx
module Alloc_map = Rw_access.Alloc_map
module Btree = Rw_access.Btree
module Heap = Rw_access.Heap
module Boot = Rw_access.Boot
module Schema = Rw_catalog.Schema
module System_tables = Rw_catalog.System_tables
module Recovery = Rw_recovery.Recovery
module Page_repair = Rw_recovery.Page_repair
module Fault_plan = Rw_storage.Fault_plan
module As_of_snapshot = Rw_core.As_of_snapshot
module Retention = Rw_core.Retention
module Page_batch = Rw_pool.Page_batch

type txn = Txn_manager.txn

exception Read_only of string

type t = {
  name : string;
  clock : Sim_clock.t;
  media : Media.t;
  log_media : Media.t;
  disk : Disk.t;
  log : Log_manager.t;
  pool : Buffer_pool.t;
  txns : Txn_manager.t;
  ctx : Access_ctx.t;
  catalog : System_tables.t; (* [ctx]'s catalog handle and its decoded-schema memo *)
  mutable alloc : Alloc_map.t;
  read_only : bool;
  snapshot : As_of_snapshot.t option;
  mutable cow : Rw_core.Cow_snapshot.t option;
  retention : Retention.t;
  checkpoint_interval_us : float;
  mutable last_checkpoint_wall : float;
  mutable recovery_stats : Recovery.stats option;
  instant : Recovery.Instant.t option;
      (* present when the last restart used instant recovery; pages in its
         backlog are recovered on first touch or by [recovery_drain_step] *)
  pool_capacity : int;
  quarantine : Page_repair.Quarantine.t;
  prepared_cache : Rw_core.Prepared_cache.t;
      (* shared across every as-of snapshot of this database; views created
         by [view_over_pool] inherit the base's cache *)
  on_drop : unit -> unit; (* a view's own pages, released when it is dropped *)
}

let name t = t.name
let clock t = t.clock
let now_us t = Sim_clock.now_us t.clock
let disk t = t.disk
let media t = t.media
let log_media t = t.log_media
let log t = t.log
let pool t = t.pool
let ctx t = t.ctx
let txn_manager t = t.txns
let is_read_only t = t.read_only
let snapshot_handle t = t.snapshot
let drop_view t = t.on_drop ()
let last_recovery_stats t = t.recovery_stats
let quarantined_pages t = Page_repair.Quarantine.list t.quarantine
let fault_plan t = Disk.fault_plan t.disk
let prepared_cache t = t.prepared_cache

let guard_writable t =
  if t.read_only then raise (Read_only t.name)

let recovery_backlog t =
  match t.instant with Some i -> Recovery.Instant.backlog i | None -> 0

let recovery_drain_step ?(max_pages = 8) t =
  match t.instant with None -> 0 | Some i -> Recovery.Instant.drain i ~max_pages

let recovery_drain_all t =
  match t.instant with None -> () | Some i -> ignore (Recovery.Instant.drain i ~max_pages:max_int)

let assemble ~name ~clock ~media ~log_media ~disk ~log ~pool_capacity ~fpi
    ~checkpoint_interval_us ~read_only ~snapshot ~instant ~pool_opt () =
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  let quarantine = Page_repair.Quarantine.create () in
  let pool =
    match pool_opt with
    | Some pool -> pool
    | None ->
        (* WAL-rule flushes route through the txn manager so a page
           write-back that forces the log also acknowledges any commits the
           flush happened to cover. *)
        let wal_flush lsn = Txn_manager.flush_log txns ~upto:lsn in
        (* The primary reads through the self-healing source: a checksum
           failure triggers a rebuild from the page's log chain instead of
           failing the query; unrepairable pages are quarantined. *)
        let base = Page_repair.source ~disk ~log ~wal_flush ~quarantine () in
        let source =
          match instant with
          | None -> base
          | Some inst ->
              (* Instant restart: the pool reads through a first-touch
                 wrapper — a fetch miss on a backlog page recovers its whole
                 group (redo to end-of-log + loser undo) before the page is
                 handed out.  Group recovery itself reads and writes through
                 the unwrapped self-healing source. *)
              Recovery.Instant.attach inst ~source:base ~wal_flush ~quarantine;
              {
                base with
                Buffer_pool.read =
                  (fun pid -> Recovery.Instant.touch inst pid (base.Buffer_pool.read pid));
              }
        in
        Buffer_pool.create ~capacity:pool_capacity ~source ~wal_flush ()
  in
  let ctx = Access_ctx.create ~pool ~txns ~log ~clock ~fpi () in
  {
    name;
    clock;
    media;
    log_media;
    disk;
    log;
    pool;
    txns;
    ctx;
    catalog = System_tables.open_ ctx;
    (* Every caller scans the allocation map once the pages it describes
       are current: after bootstrap, restore or recovery. *)
    alloc = Alloc_map.empty_handle ();
    read_only;
    snapshot;
    cow = None;
    on_drop = ignore;
    retention = Retention.create ();
    checkpoint_interval_us;
    last_checkpoint_wall = Sim_clock.now_us clock;
    recovery_stats = None;
    instant;
    pool_capacity;
    quarantine;
    prepared_cache = Rw_core.Prepared_cache.create ~log;
  }

let checkpoint ?(flush_pages = true) t =
  (* A checkpoint's dirty-page table only describes the pool, so taking one
     while an instant-restart backlog is outstanding would move the master
     record past pages that still need redo.  Finish recovery first. *)
  recovery_drain_all t;
  let lsn =
    Recovery.checkpoint ~log:t.log ~pool:t.pool ~txns:t.txns ~wall_us:(now_us t) ~flush_pages ()
  in
  t.last_checkpoint_wall <- now_us t;
  (* Retention rides on checkpoints: log older than the undo interval is
     reclaimed here (paper §4.3). *)
  ignore (Retention.enforce t.retention ~log:t.log ~now_us:(now_us t));
  lsn

let create ~name ~clock ~media ?log_media ?(pool_capacity = 512) ?(log_cache_blocks = 128)
    ?(log_block_bytes = 65536) ?log_segment_bytes ?(fpi = Access_ctx.default_fpi)
    ?(checkpoint_interval_us = 30_000_000.0) ?fault_plan () =
  let log_media = Option.value log_media ~default:media in
  let disk = Disk.create ~clock ~media ?fault_plan () in
  let log =
    Log_manager.create ~clock ~media:log_media ~cache_blocks:log_cache_blocks
      ~block_bytes:log_block_bytes ?segment_bytes:log_segment_bytes ?fault_plan ()
  in
  let t =
    assemble ~name ~clock ~media ~log_media ~disk ~log ~pool_capacity ~fpi
      ~checkpoint_interval_us ~read_only:false ~snapshot:None ~instant:None
      ~pool_opt:None ()
  in
  (* Bootstrap: boot page, page-id counter, allocation map, catalog. *)
  let txn = Txn_manager.begin_txn t.txns in
  Boot.init t.ctx txn;
  Boot.set t.ctx txn Boot.key_next_page_id 2L;
  Alloc_map.init t.ctx txn;
  t.alloc <- Alloc_map.open_ t.ctx;
  System_tables.init t.catalog t.alloc txn;
  Txn_manager.commit t.txns txn ~wall_us:(now_us t);
  Txn_manager.finished t.txns txn;
  ignore (checkpoint t);
  t

(* --- transactions --- *)

let begin_txn t =
  guard_writable t;
  Txn_manager.begin_txn t.txns

let maybe_auto_checkpoint t =
  if now_us t -. t.last_checkpoint_wall >= t.checkpoint_interval_us then ignore (checkpoint t)

let commit t txn =
  ignore (Txn_manager.commit_begin t.txns txn ~wall_us:(now_us t));
  (* The flush scheduler decides whether this commit rides an accumulating
     batch or forces one now; the default (immediate) policy flushes every
     time, i.e. a durable batch of one. *)
  ignore (Txn_manager.maybe_flush t.txns);
  Txn_manager.finished t.txns txn;
  maybe_auto_checkpoint t

let set_group_commit t ~max_batch_bytes ~max_delay_us =
  Txn_manager.set_group_commit t.txns ~max_batch_bytes ~max_delay_us

let flush_commits t = Txn_manager.flush_commits t.txns
let pending_commits t = Txn_manager.pending_commits t.txns

let rollback t txn =
  Txn_manager.rollback t.txns txn ~write_page:(Access_ctx.page_writer t.ctx);
  Txn_manager.finished t.txns txn

let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | v ->
      commit t txn;
      v
  | exception e ->
      (match Txn_manager.state txn with
      | Rw_txn.Txn_manager.Active -> rollback t txn
      | _ -> ());
      raise e

(* --- DDL --- *)

let create_table t txn ~table ~columns ?(kind = Schema.Btree_table) () =
  guard_writable t;
  Txn_manager.lock t.txns txn (Lock_manager.Table 0) Lock_manager.IX;
  System_tables.create_table t.catalog t.alloc txn ~name:table ~kind ~columns

let drop_table t txn table =
  guard_writable t;
  System_tables.drop_table t.catalog t.alloc txn table

let tables t = System_tables.list_tables t.catalog
let table t name = System_tables.find t.catalog name

let find_table t name =
  match table t name with
  | Some tab -> tab
  | None -> raise (System_tables.No_such_table name)

(* --- secondary indexes --- *)

exception No_such_index of string

let column_position (tab : Schema.table) column =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "table %s has no column %s" tab.Schema.name column)
    | (c : Schema.column) :: _ when c.Schema.name = column -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 tab.Schema.columns

let indexed_values (tab : Schema.table) row =
  List.map
    (fun (ix : Schema.index) -> (ix, List.nth row (column_position tab ix.Schema.column)))
    tab.Schema.indexes

let create_index t txn ~table ?name ~column () =
  guard_writable t;
  let tab = find_table t table in
  if tab.Schema.kind <> Schema.Btree_table then
    invalid_arg "create_index: only B-tree tables support secondary indexes";
  let pos = column_position tab column in
  if pos = 0 then invalid_arg "create_index: the key column is already the primary index";
  let index_name = Option.value name ~default:(Printf.sprintf "idx_%s_%s" table column) in
  if List.exists (fun (ix : Schema.index) -> ix.Schema.index_name = index_name) tab.Schema.indexes
  then invalid_arg (Printf.sprintf "index %s already exists" index_name);
  let root = Btree.root (Btree.create t.ctx t.alloc txn) in
  let ix = { Schema.index_name; column; index_root = root } in
  (* Backfill from existing rows. *)
  Btree.iter t.ctx (Btree.of_root tab.Schema.root) ~f:(fun key payload ->
      let row = Row.decode tab ~key ~payload in
      Index.add t.ctx t.alloc txn ix ~value:(List.nth row pos) ~pk:key);
  System_tables.update_table t.catalog t.alloc txn
    { tab with Schema.indexes = ix :: tab.Schema.indexes };
  ix

let drop_index t txn ~table ~name =
  guard_writable t;
  let tab = find_table t table in
  match
    List.partition (fun (ix : Schema.index) -> ix.Schema.index_name = name) tab.Schema.indexes
  with
  | [ victim ], rest ->
      Btree.drop t.ctx t.alloc txn (Btree.of_root victim.Schema.index_root);
      System_tables.update_table t.catalog t.alloc txn { tab with Schema.indexes = rest }
  | _ -> raise (No_such_index name)

let lookup_by_index t ~table ~column ~value =
  let tab = find_table t table in
  let pos = column_position tab column in
  match
    List.find_opt (fun (ix : Schema.index) -> ix.Schema.column = column) tab.Schema.indexes
  with
  | None -> raise (No_such_index column)
  | Some ix ->
      Index.lookup t.ctx ix ~value
      |> List.filter_map (fun pk ->
             match Btree.find t.ctx (Btree.of_root tab.Schema.root) pk with
             | Some payload ->
                 let row = Row.decode tab ~key:pk ~payload in
                 (* Hash collisions: verify the predicate. *)
                 if Row.equal_value (List.nth row pos) value then Some row else None
             | None -> None)

(* --- DML --- *)

let insert t txn ~table values =
  guard_writable t;
  let tab = find_table t table in
  let key, payload = Row.encode tab values in
  Txn_manager.lock t.txns txn (Lock_manager.Table tab.Schema.id) Lock_manager.IX;
  Txn_manager.lock t.txns txn (Lock_manager.Row (tab.Schema.id, key)) Lock_manager.X;
  match tab.Schema.kind with
  | Schema.Btree_table ->
      Btree.insert t.ctx t.alloc txn (Btree.of_root tab.Schema.root) ~key ~payload;
      List.iter
        (fun (ix, v) -> Index.add t.ctx t.alloc txn ix ~value:v ~pk:key)
        (indexed_values tab values)
  | Schema.Heap_table ->
      let full = Rw_wal.Codec.encoder () in
      Rw_wal.Codec.i64 full key;
      ignore
        (Heap.insert t.ctx t.alloc txn (Heap.of_first tab.Schema.root)
           (Rw_wal.Codec.to_string full ^ payload))

let update t txn ~table values =
  guard_writable t;
  let tab = find_table t table in
  let key, payload = Row.encode tab values in
  Txn_manager.lock t.txns txn (Lock_manager.Table tab.Schema.id) Lock_manager.IX;
  Txn_manager.lock t.txns txn (Lock_manager.Row (tab.Schema.id, key)) Lock_manager.X;
  match tab.Schema.kind with
  | Schema.Btree_table ->
      let old_row =
        if tab.Schema.indexes = [] then None
        else
          Option.map
            (fun p -> Row.decode tab ~key ~payload:p)
            (Btree.find t.ctx (Btree.of_root tab.Schema.root) key)
      in
      Btree.update t.ctx t.alloc txn (Btree.of_root tab.Schema.root) ~key ~payload;
      (match old_row with
      | None -> ()
      | Some old_row ->
          List.iter2
            (fun (ix, old_v) (_, new_v) ->
              if not (Row.equal_value old_v new_v) then begin
                Index.remove t.ctx t.alloc txn ix ~value:old_v ~pk:key;
                Index.add t.ctx t.alloc txn ix ~value:new_v ~pk:key
              end)
            (indexed_values tab old_row) (indexed_values tab values))
  | Schema.Heap_table ->
      let found = ref false in
      Heap.iter t.ctx (Heap.of_first tab.Schema.root) ~f:(fun rid stored ->
          if (not !found) && String.length stored >= 8 && String.get_int64_le stored 0 = key
          then begin
            found := true;
            let full = Rw_wal.Codec.encoder () in
            Rw_wal.Codec.i64 full key;
            Heap.update t.ctx txn (Heap.of_first tab.Schema.root) rid
              (Rw_wal.Codec.to_string full ^ payload)
          end);
      if not !found then raise Not_found

let delete t txn ~table ~key =
  guard_writable t;
  let tab = find_table t table in
  Txn_manager.lock t.txns txn (Lock_manager.Table tab.Schema.id) Lock_manager.IX;
  Txn_manager.lock t.txns txn (Lock_manager.Row (tab.Schema.id, key)) Lock_manager.X;
  match tab.Schema.kind with
  | Schema.Btree_table ->
      let old_row =
        if tab.Schema.indexes = [] then None
        else
          Option.map
            (fun p -> Row.decode tab ~key ~payload:p)
            (Btree.find t.ctx (Btree.of_root tab.Schema.root) key)
      in
      Btree.delete t.ctx txn (Btree.of_root tab.Schema.root) ~key;
      (match old_row with
      | None -> ()
      | Some old_row ->
          List.iter
            (fun (ix, v) -> Index.remove t.ctx t.alloc txn ix ~value:v ~pk:key)
            (indexed_values tab old_row))
  | Schema.Heap_table ->
      let found = ref false in
      Heap.iter t.ctx (Heap.of_first tab.Schema.root) ~f:(fun rid stored ->
          if (not !found) && String.length stored >= 8 && String.get_int64_le stored 0 = key
          then begin
            found := true;
            Heap.delete t.ctx txn (Heap.of_first tab.Schema.root) rid
          end);
      if not !found then raise Not_found

let heap_row tab stored =
  let key = String.get_int64_le stored 0 in
  Row.decode tab ~key ~payload:(String.sub stored 8 (String.length stored - 8))

let get t ~table ~key =
  let tab = find_table t table in
  match tab.Schema.kind with
  | Schema.Btree_table ->
      Option.map
        (fun payload -> Row.decode tab ~key ~payload)
        (Btree.find t.ctx (Btree.of_root tab.Schema.root) key)
  | Schema.Heap_table ->
      let result = ref None in
      Heap.iter t.ctx (Heap.of_first tab.Schema.root) ~f:(fun _ stored ->
          if !result = None && String.length stored >= 8 && String.get_int64_le stored 0 = key
          then result := Some (heap_row tab stored));
      !result

let range t ~table ~lo ~hi ~f =
  let tab = find_table t table in
  match tab.Schema.kind with
  | Schema.Btree_table ->
      Btree.range t.ctx (Btree.of_root tab.Schema.root) ~lo ~hi ~f:(fun key payload ->
          f (Row.decode tab ~key ~payload))
  | Schema.Heap_table ->
      Heap.iter t.ctx (Heap.of_first tab.Schema.root) ~f:(fun _ stored ->
          let key = String.get_int64_le stored 0 in
          if key >= lo && key <= hi then f (heap_row tab stored))

let scan t ~table ~f = range t ~table ~lo:Int64.min_int ~hi:Int64.max_int ~f

let row_count t ~table =
  let n = ref 0 in
  scan t ~table ~f:(fun _ -> incr n);
  !n

(* --- retention --- *)

let set_retention t v = Retention.set_interval t.retention v
let retention t = Retention.interval t.retention
let enforce_retention t =
  (* Truncation must not reclaim log an outstanding restart backlog still
     needs for redo; finish recovery first. *)
  recovery_drain_all t;
  Retention.enforce t.retention ~log:t.log ~now_us:(now_us t)

(* --- snapshots --- *)

let view_over_pool ~name ~base ~pool ~snapshot ~on_drop =
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log:base.log ~locks in
  let ctx =
    Access_ctx.create ~pool ~txns ~log:base.log ~clock:base.clock ~fpi:(Access_ctx.fpi base.ctx) ()
  in
  {
    base with
    name;
    pool;
    txns;
    ctx;
    catalog = System_tables.open_ ctx;
    (* Read-only views never allocate; scanning the allocation map here
       would needlessly materialise snapshot pages. *)
    alloc = Alloc_map.empty_handle ();
    read_only = true;
    snapshot;
    cow = None;
    on_drop;
    recovery_stats = None;
    instant = None;
  }

let create_cow_snapshot t ~name =
  guard_writable t;
  (* Snapshots read pages beneath the pool, so the on-disk state must be
     fully recovered before one is taken. *)
  recovery_drain_all t;
  let cow =
    Rw_core.Cow_snapshot.create ~ctx:t.ctx ~primary_pool:t.pool ~primary_disk:t.disk
      ~txns:t.txns ~log:t.log ~clock:t.clock ~media:t.media
  in
  t.last_checkpoint_wall <- now_us t;
  let view =
    view_over_pool ~name ~base:t ~pool:(Rw_core.Cow_snapshot.pool cow) ~snapshot:None
      ~on_drop:ignore
  in
  view.cow <- Some cow;
  view

let cow_handle t = t.cow

let create_as_of_snapshot ?(shared = true) t ~name ~wall_us =
  guard_writable t;
  (* As-of rewinds start from current on-disk images; drain any instant
     restart backlog so those images are consistent. *)
  recovery_drain_all t;
  let snap =
    As_of_snapshot.create ~wall_us ~log:t.log ~primary_pool:t.pool ~primary_disk:t.disk
      ~txns:t.txns ~clock:t.clock ~media:t.media
      ?shared:(if shared then Some t.prepared_cache else None)
      ()
  in
  t.last_checkpoint_wall <- now_us t;
  view_over_pool ~name ~base:t ~pool:(As_of_snapshot.pool snap) ~snapshot:(Some snap)
    ~on_drop:(fun () -> As_of_snapshot.drop snap)

(* --- persistence --- *)

(* Bumped whenever the on-disk encoding changes; "0002" added the CRC
   trailer to every log record, "0003" the full-page-image policy. *)
let magic = "RWDB0003"

(* The FPI policy as a kind byte and its u32 parameter. *)
let encode_fpi e fpi =
  let kind, v =
    match fpi with
    | Access_ctx.Off -> (0, 0)
    | Access_ctx.Every_mods n -> (1, max n 0)
    | Access_ctx.Budget_bytes b -> (2, max b 0)
  in
  Rw_wal.Codec.u8 e kind;
  Rw_wal.Codec.u32 e v

let decode_fpi d =
  let kind = Rw_wal.Codec.get_u8 d in
  let v = Rw_wal.Codec.get_u32 d in
  match kind with
  | 0 -> Access_ctx.Off
  | 1 -> Access_ctx.Every_mods v
  | 2 -> Access_ctx.Budget_bytes v
  | k -> failwith (Printf.sprintf "Database.load: bad full-page-image policy %d" k)

let save t ~path =
  guard_writable t;
  (* Quiesce: every page and the whole log become durable first. *)
  ignore (checkpoint t);
  let e = Rw_wal.Codec.encoder () in
  Rw_wal.Codec.str16 e t.name;
  Rw_wal.Codec.f64 e (now_us t);
  (match Retention.interval t.retention with
  | Some r ->
      Rw_wal.Codec.u8 e 1;
      Rw_wal.Codec.f64 e r
  | None -> Rw_wal.Codec.u8 e 0);
  encode_fpi e (Access_ctx.fpi t.ctx);
  Rw_wal.Codec.u32 e (Disk.page_count t.disk);
  let written = Disk.written_pages t.disk in
  Rw_wal.Codec.u32 e written;
  for i = 0 to Disk.page_count t.disk - 1 do
    let pid = Page_id.of_int i in
    if Disk.has_page t.disk pid then begin
      Rw_wal.Codec.u32 e i;
      Rw_wal.Codec.str32 e (Bytes.to_string (Disk.read_page_nocost t.disk pid))
    end
  done;
  let entries = Log_manager.dump_entries t.log in
  Rw_wal.Codec.u32 e (List.length entries);
  List.iter
    (fun (lsn, data) ->
      Rw_wal.Codec.i64_int e (Lsn.to_int lsn);
      Rw_wal.Codec.str32 e data)
    entries;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_string oc (Rw_wal.Codec.to_string e))

let load ~clock ~media ?log_media ?log_segment_bytes ~path () =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if String.length contents < 8 || String.sub contents 0 8 <> magic then
    failwith (Printf.sprintf "Database.load: %s is not a rewinddb image" path);
  let d = Rw_wal.Codec.decoder_at contents ~pos:8 in
  let name = Rw_wal.Codec.get_str16 d in
  let saved_wall = Rw_wal.Codec.get_f64 d in
  let retention_us =
    if Rw_wal.Codec.get_u8 d = 1 then Some (Rw_wal.Codec.get_f64 d) else None
  in
  let fpi = decode_fpi d in
  let page_count = Rw_wal.Codec.get_u32 d in
  let written = Rw_wal.Codec.get_u32 d in
  (* The simulated clock resumes from where the image left off, so saved
     history keeps its wall-clock meaning for as-of queries. *)
  if Sim_clock.now_us clock < saved_wall then
    Sim_clock.advance_us clock (saved_wall -. Sim_clock.now_us clock);
  let log_media = Option.value log_media ~default:media in
  let disk = Disk.create ~clock ~media () in
  for _ = 1 to written do
    let pid = Page_id.of_int (Rw_wal.Codec.get_u32 d) in
    let image = Rw_wal.Codec.get_str32 d in
    Disk.write_page_nocost disk pid (Bytes.of_string image)
  done;
  Disk.extend disk page_count;
  let log =
    Log_manager.create ~clock ~media:log_media ~cache_blocks:128 ~block_bytes:65536
      ?segment_bytes:log_segment_bytes ()
  in
  let n = Rw_wal.Codec.get_u32 d in
  let entries =
    List.init n (fun _ ->
        let lsn = Lsn.of_int (Rw_wal.Codec.get_i64_int d) in
        let data = Rw_wal.Codec.get_str32 d in
        (lsn, data))
  in
  Log_manager.restore_entries log entries;
  let t =
    assemble ~name ~clock ~media ~log_media ~disk ~log ~pool_capacity:512 ~fpi
      ~checkpoint_interval_us:30_000_000.0 ~read_only:false ~snapshot:None ~instant:None
      ~pool_opt:None ()
  in
  Retention.set_interval t.retention retention_us;
  (* The image was checkpoint-consistent, so restart recovery is a cheap
     formality that also reseeds the transaction-id counter. *)
  let stats =
    Recovery.recover ~now_us:(fun () -> Sim_clock.now_us clock) ~log:t.log ~pool:t.pool ()
  in
  Txn_manager.set_next_id t.txns (Rw_wal.Txn_id.next stats.Recovery.analysis.Recovery.max_txn_id);
  t.recovery_stats <- Some stats;
  t.alloc <- Alloc_map.open_ t.ctx;
  t

(* --- scrubbing --- *)

let scrub t =
  (* Sweep every written page for residual damage (bit rot, applied torn
     writes): corrupt pages are repaired from the log and unrepairable
     ones land in quarantine instead of failing the scrub.  Returns the
     number of pages repaired.  Half a pool per [Page_batch] keeps the
     residency filter fresh relative to the evictions our own admissions
     cause.  The gather reads, timed, each page neither resident nor
     quarantined; apply verifies its checksum.  Publish admits a clean
     page with exactly a fetch miss's bookkeeping, repairs (or
     quarantines) a corrupt one as the self-healing source does, and
     touches a page that was resident through the pool, re-reading it via
     the healing source if one of our admissions evicted it meanwhile. *)
  let repaired_before = (Disk.stats t.disk).Rw_storage.Io_stats.pages_repaired in
  let wal_flush lsn = Txn_manager.flush_log t.txns ~upto:lsn in
  ignore
  @@ Page_batch.run ~clock:t.clock ~span:"scrub.batch" ~chunk:(Buffer_pool.capacity t.pool / 2)
       ~gather:(fun batch ->
         let costs = ref [] in
         let pages =
           Array.map
             (fun pid ->
               if
                 Buffer_pool.resident_lsn t.pool pid <> None
                 || Page_repair.Quarantine.mem t.quarantine pid
               then None
               else begin
                 let t0 = Sim_clock.now_us t.clock in
                 let page = Disk.read_page_retrying t.disk pid in
                 costs := (Sim_clock.now_us t.clock -. t0) :: !costs;
                 Some page
               end)
             batch
         in
         ((batch, pages), Array.of_list (List.rev !costs)))
       ~apply:(fun (_, pages) i -> Option.fold ~none:true ~some:Rw_storage.Page.verify pages.(i))
       ~publish:(fun (batch, pages) i ok ->
         let pid = batch.(i) in
         match pages.(i) with
         | Some page when ok -> Buffer_pool.admit t.pool pid page
         | Some _ -> (
             let st = Disk.stats t.disk in
             st.Rw_storage.Io_stats.corruptions_detected <-
               st.Rw_storage.Io_stats.corruptions_detected + 1;
             match Page_repair.repair_to_disk ~log:t.log ~disk:t.disk ~wal_flush pid with
             | page -> Buffer_pool.admit t.pool pid page
             | exception Page_repair.Unrepairable { reason; _ } ->
                 Page_repair.Quarantine.add t.quarantine pid reason)
         | None -> (
             if not (Page_repair.Quarantine.mem t.quarantine pid) then
               try
                 Rw_buffer.Buffer_pool.with_page t.pool pid ~mode:Rw_buffer.Latch.Shared
                   (fun _ -> ())
               with Rw_recovery.Page_repair.Quarantined _ -> ()))
       (Array.of_list (Disk.written_page_ids t.disk));
  (Disk.stats t.disk).Rw_storage.Io_stats.pages_repaired - repaired_before

(* --- crash simulation --- *)

(* Reopen [t]'s media, log and clock as a fresh handle after a crash.
   [now_us] closes over the clock alone: recovery state kept by the new
   handle (the instant-restart backlog) must not pin the old handle, or
   every restart would keep all earlier ones alive.  The retention
   interval is a setting of the database, so it carries over. *)
let reopen t ?instant recover =
  Buffer_pool.drop_all t.pool;
  (* Torn writes bite now: pages whose last write was marked tearable keep
     only a sector prefix of it, and the log may keep a torn tail. *)
  ignore (Disk.apply_crash t.disk);
  Log_manager.crash t.log;
  let clock = t.clock in
  let now_us () = Sim_clock.now_us clock in
  let instant = Option.map (fun open_ -> open_ ~now_us) instant in
  let fresh =
    assemble ~name:t.name ~clock ~media:t.media ~log_media:t.log_media ~disk:t.disk ~log:t.log
      ~pool_capacity:t.pool_capacity ~fpi:(Access_ctx.fpi t.ctx)
      ~checkpoint_interval_us:t.checkpoint_interval_us ~read_only:false ~snapshot:None ~instant
      ~pool_opt:None ()
  in
  Retention.set_interval fresh.retention (Retention.interval t.retention);
  let stats = recover ~now_us fresh in
  Txn_manager.set_next_id fresh.txns
    (Rw_wal.Txn_id.next stats.Recovery.analysis.Recovery.max_txn_id);
  fresh.recovery_stats <- Some stats;
  (* The allocation map's one scan, over the pages redo and undo left
     (an instant restart's first touches recover them). *)
  fresh.alloc <- Alloc_map.open_ fresh.ctx;
  fresh

let crash_and_reopen ?(instant = false) t =
  guard_writable t;
  if instant then begin
    (* Instant restart: tail repair + analysis only, then open for business.
       Backlog pages are recovered on first touch (the pool source wrapper
       installed by [assemble]) or by the background sweeper; the first
       fetches below — boot page, allocation map — already go through it. *)
    let fresh =
      reopen t
        ~instant:(fun ~now_us -> Recovery.Instant.open_ ~now_us ~log:t.log ())
        (fun ~now_us:_ fresh -> Recovery.Instant.stats (Option.get fresh.instant))
    in
    (* No checkpoint yet: the master record must not advance past pages
       still awaiting redo.  The first explicit or automatic checkpoint
       drains the backlog and then advances it. *)
    Recovery.Instant.mark_open (Option.get fresh.instant);
    fresh
  end
  else begin
    let fresh =
      reopen t (fun ~now_us fresh ->
          Recovery.recover ~now_us ~log:fresh.log ~pool:fresh.pool ())
    in
    ignore (checkpoint fresh);
    fresh
  end

(* --- replication support --- *)

let add_retention_floor t ~name f = Retention.register_floor t.retention ~name f
let remove_retention_floor t ~name = Retention.unregister_floor t.retention ~name

let reopen_redo_only t =
  (* No checkpoint taken and nothing appended: the log stays a
     byte-identical prefix of the primary's stream, and the master record
     stays wherever the replica last advanced it — the caller resumes
     catch-up from there. *)
  reopen t (fun ~now_us fresh ->
      Recovery.recover_redo_only ~now_us ~log:fresh.log ~pool:fresh.pool ())
