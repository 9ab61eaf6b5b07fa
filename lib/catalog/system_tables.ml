module Access_ctx = Rw_access.Access_ctx
module Alloc_map = Rw_access.Alloc_map
module Btree = Rw_access.Btree
module Heap = Rw_access.Heap
module Boot = Rw_access.Boot
module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_manager = Rw_wal.Log_manager

exception Table_exists of string
exception No_such_table of string

(* One catalog leaf's decoded descriptors, stamped with what the leaf held
   when they were decoded: its page LSN and the log's invalidation epoch.
   Within one context a page LSN names the page's logged content, and
   everything that recycles LSNs (crash, failover cut, truncation) bumps
   the epoch, so a matching stamp means the leaf still holds these rows. *)
type leaf = { lsn : Lsn.t; epoch : int; tables : Schema.table list }

type t = { ctx : Access_ctx.t; leaves : (int, leaf) Hashtbl.t (* leaf page id -> memo *) }

let open_ ctx = { ctx; leaves = Hashtbl.create 8 }

let catalog_tree ctx = Btree.of_root (Page_id.of_int64 (Boot.get_exn ctx Boot.key_catalog_root))

let init t alloc txn =
  let ctx = t.ctx in
  let tree = Btree.create ctx alloc txn in
  Boot.set ctx txn Boot.key_catalog_root (Page_id.to_int64 (Btree.root tree));
  Boot.set ctx txn Boot.key_next_table_id 1L

(* The same page reads as a plain leaf walk; only the decoding is skipped
   for leaves whose stamp still matches. *)
let list_tables t =
  let epoch = Log_manager.invalidation_epoch (Access_ctx.log t.ctx) in
  let acc = ref [] in
  Btree.iter_leaves t.ctx (catalog_tree t.ctx)
    ~leaf:(fun pid page ->
      let key = Page_id.to_int pid and lsn = Page.lsn page in
      match Hashtbl.find_opt t.leaves key with
      | Some m when m.epoch = epoch && Lsn.equal m.lsn lsn -> m.tables
      | _ ->
          let tables = List.map (fun (_, row) -> Schema.decode row) (Btree.leaf_rows page) in
          Hashtbl.replace t.leaves key { lsn; epoch; tables };
          tables)
    ~f:(fun tables -> acc := List.rev_append tables !acc);
  List.rev !acc

let find t name = List.find_opt (fun (tab : Schema.table) -> tab.name = name) (list_tables t)

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
