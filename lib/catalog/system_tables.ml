module Access_ctx = Rw_access.Access_ctx
module Alloc_map = Rw_access.Alloc_map
module Btree = Rw_access.Btree
module Heap = Rw_access.Heap
module Boot = Rw_access.Boot
module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_manager = Rw_wal.Log_manager
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes

exception Table_exists of string
exception No_such_table of string

(* The last catalog walk: every page it read, in read order (a page read
   twice in a row, once), with the page LSN it read there, under the log's
   invalidation epoch of the time;
   each leaf's decoded descriptors; and the descriptors by id and by name.
   Within one epoch a page LSN names the page's logged content, and
   everything that recycles LSNs (crash, failover cut, truncation) bumps
   the epoch.  So while the epoch holds and every recorded page is
   resident at its recorded LSN, a walk would read exactly these pages and
   rows, and a lookup answers from the record without reading at all. *)
type walk = {
  epoch : int;
  pages : (Page_id.t * Lsn.t) list;
  leaves : (int, Lsn.t * Schema.table list) Hashtbl.t; (* leaf page id -> its LSN and rows *)
  tables : Schema.table list; (* by id *)
  by_name : (string, Schema.table) Hashtbl.t;
}

(* [memo_walk], [memo_name] and [memo] are the last [find]: its answer
   [memo] for [memo_name] in the walk [memo_walk], compared by physical
   identity.  Every walk is a new record, so the memo never outlives the
   walk it was read from. *)
type t = {
  ctx : Access_ctx.t;
  mutable last : walk option;
  mutable memo_walk : walk;
  mutable memo_name : string;
  mutable memo : Schema.table option;
}

(* Stands for "no walk yet" in [memo_walk]; no walk is this record. *)
let no_walk =
  { epoch = -1; pages = []; leaves = Hashtbl.create 1; tables = []; by_name = Hashtbl.create 1 }

let open_ ctx = { ctx; last = None; memo_walk = no_walk; memo_name = ""; memo = None }

let catalog_tree ?seen ctx =
  Btree.of_root (Page_id.of_int (Int64.to_int (Boot.get_exn ?seen ctx Boot.key_catalog_root)))

let init t alloc txn =
  let ctx = t.ctx in
  let tree = Btree.create ctx alloc txn in
  Boot.set ctx txn Boot.key_catalog_root (Int64.of_int (Page_id.to_int (Btree.root tree)));
  Boot.set ctx txn Boot.key_next_table_id 1L

(* The same page reads, in the same order, as a plain leaf walk; a leaf
   whose LSN matches the previous walk's, in the same epoch, keeps its
   decoded descriptors. *)
let walk t =
  Metrics.incr Probes.catalog_walks;
  let ctx = t.ctx in
  let epoch = Log_manager.invalidation_epoch (Access_ctx.log ctx) in
  let reuse = match t.last with Some w when w.epoch = epoch -> Some w.leaves | _ -> None in
  let pages = ref [] and leaves = Hashtbl.create 8 and acc = ref [] in
  let seen pid page =
    match !pages with
    | (last, _) :: _ when Page_id.equal last pid -> () (* the descent's leaf, read again *)
    | l -> pages := (pid, Page.lsn page) :: l
  in
  Btree.iter_leaves ~seen ctx (catalog_tree ~seen ctx)
    ~leaf:(fun pid page ->
      let key = Page_id.to_int pid and lsn = Page.lsn page in
      let tables =
        match Option.bind reuse (fun r -> Hashtbl.find_opt r key) with
        | Some (l, tables) when Lsn.equal l lsn -> tables
        | _ -> List.map (fun (_, row) -> Schema.decode row) (Btree.leaf_rows page)
      in
      Hashtbl.replace leaves key (lsn, tables);
      tables)
    ~f:(fun tables -> acc := List.rev_append tables !acc);
  let tables = List.rev !acc in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (tab : Schema.table) ->
      (* the first by id, as a scan would find *)
      if not (Hashtbl.mem by_name tab.name) then Hashtbl.add by_name tab.name tab)
    tables;
  let w = { epoch; pages = List.rev !pages; leaves; tables; by_name } in
  t.last <- Some w;
  w

let rec all_resident ctx = function
  | [] -> true
  | (pid, lsn) :: rest -> Access_ctx.resident_at ctx pid lsn && all_resident ctx rest

(* The last walk if it still stands (checked by peeks that charge
   nothing and allocate nothing), else a new one. *)
let current t =
  match t.last with
  | Some w
    when w.epoch = Log_manager.invalidation_epoch (Access_ctx.log t.ctx)
         && all_resident t.ctx w.pages ->
      w
  | _ -> walk t

let list_tables t = (current t).tables

let find t name =
  let w = current t in
  if w == t.memo_walk && String.equal name t.memo_name then t.memo
  else begin
    let r = Hashtbl.find_opt w.by_name name in
    t.memo_walk <- w;
    t.memo_name <- name;
    t.memo <- r;
    r
  end

let find_exn t name =
  match find t name with Some tab -> tab | None -> raise (No_such_table name)

let find_by_id t id =
  match Btree.find t.ctx (catalog_tree t.ctx) (Int64.of_int id) with
  | Some payload -> Some (Schema.decode payload)
  | None -> None

let create_table t alloc txn ~name ~kind ~columns =
  (match Schema.validate ~name ~columns with
  | Ok () -> ()
  | Error msg -> invalid_arg ("create_table: " ^ msg));
  if find t name <> None then raise (Table_exists name);
  let ctx = t.ctx in
  let id = Int64.to_int (Boot.get_exn ctx Boot.key_next_table_id) in
  Boot.set ctx txn Boot.key_next_table_id (Int64.of_int (id + 1));
  let root =
    match kind with
    | Schema.Btree_table -> Btree.root (Btree.create ctx alloc txn)
    | Schema.Heap_table -> Heap.first (Heap.create ctx alloc txn)
  in
  let table = { Schema.id; name; kind; root; columns; indexes = [] } in
  Btree.insert ctx alloc txn (catalog_tree ctx) ~key:(Int64.of_int id)
    ~payload:(Schema.encode table);
  table

let update_table t alloc txn (table : Schema.table) =
  Btree.update t.ctx alloc txn (catalog_tree t.ctx) ~key:(Int64.of_int table.Schema.id)
    ~payload:(Schema.encode table)

let drop_table t alloc txn name =
  let table = find_exn t name in
  let ctx = t.ctx in
  (match table.Schema.kind with
  | Schema.Btree_table -> Btree.drop ctx alloc txn (Btree.of_root table.Schema.root)
  | Schema.Heap_table -> Heap.drop ctx alloc txn (Heap.of_first table.Schema.root));
  List.iter
    (fun (ix : Schema.index) ->
      Btree.drop ctx alloc txn (Btree.of_root ix.Schema.index_root))
    table.Schema.indexes;
  Btree.delete ctx txn (catalog_tree ctx) ~key:(Int64.of_int table.Schema.id)
