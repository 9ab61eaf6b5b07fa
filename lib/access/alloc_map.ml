module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Log_record = Rw_wal.Log_record

module Txn_manager = Rw_txn.Txn_manager

(* A free-list entry remembers the transaction that last re-allocated its
   page, so an allocation that finds the row allocated can tell a
   re-allocation that may still roll back from a stale entry. *)
type entry = { pid : Page_id.t; mutable taker : Txn_manager.txn option }
type t = { mutable free : entry list }

let first_page = Page_id.of_int 1
let flag_allocated = 1
let flag_ever = 2

(* A page's map-row key. *)
let key_of pid = Int64.of_int (Page_id.to_int pid)

let init ctx txn =
  Access_ctx.modify ctx txn first_page (Log_record.Format { typ = Page.Alloc_map; level = 0 })

(* Walk the chain of map pages, applying [f pid page] until it returns
   [Some _]. *)
let rec find_map ctx pid f =
  if Page_id.is_nil pid then None
  else
    let result, next = Access_ctx.read ctx pid (fun page -> (f pid page, Page.next_page page)) in
    match result with Some _ -> result | None -> find_map ctx next f

let find_row ctx target =
  let key = key_of target in
  find_map ctx first_page (fun pid page ->
      match Slotted_page.find_key page key with
      | Either.Left i -> Some (pid, i, Rowfmt.row_flags (Slotted_page.get page ~at:i))
      | Either.Right _ -> None)

let open_ ctx =
  let free = ref [] in
  ignore
    (find_map ctx first_page (fun _ page ->
         Slotted_page.iter page (fun _ row ->
             let flags = Rowfmt.row_flags row in
             if flags land flag_allocated = 0 then
               free := Page_id.of_int (Int64.to_int (Rowfmt.row_key row)) :: !free);
         None));
  { free = List.map (fun pid -> { pid; taker = None }) (List.sort Page_id.compare !free) }

let empty_handle () = { free = [] }
let free_count t = List.length t.free

let set_flags ctx txn map_pid slot flags =
  let before = Access_ctx.read ctx map_pid (fun page -> Slotted_page.get page ~at:slot) in
  let after = Rowfmt.flags_row ~key:(Rowfmt.row_key before) ~flags in
  Access_ctx.modify ctx txn map_pid (Log_record.Update_row { slot; before; after })

let last_map_page ctx =
  let rec go pid =
    match Access_ctx.read ctx pid (fun page -> Page.next_page page) with
    | next when Page_id.is_nil next -> pid
    | next -> go next
  in
  go first_page

let fresh_page_id ctx txn =
  let pid = Boot.get_exn ctx Boot.key_next_page_id in
  Boot.set ctx txn Boot.key_next_page_id (Int64.add pid 1L);
  Page_id.of_int (Int64.to_int pid)

let map_row_space = 32 (* row (9B) + slot (4B) + headroom *)

(* Insert the allocation row for [pid]; extends the map chain with a fresh
   map page when the last one is full. *)
let rec insert_row ctx txn pid ~flags =
  let last = last_map_page ctx in
  let fits = Access_ctx.read ctx last (fun page -> Slotted_page.free_space page >= map_row_space) in
  if fits then begin
    let row = Rowfmt.flags_row ~key:(key_of pid) ~flags in
    let slot =
      Access_ctx.read ctx last (fun page ->
          match Slotted_page.find_key page (key_of pid) with
          | Either.Left _ -> invalid_arg "Alloc_map.insert_row: duplicate page row"
          | Either.Right i -> i)
    in
    Access_ctx.modify ctx txn last (Log_record.Insert_row { slot; row })
  end
  else begin
    (* Chain a fresh map page, register it in itself, then retry. *)
    let map_pid = fresh_page_id ctx txn in
    Access_ctx.modify ctx txn map_pid (Log_record.Format { typ = Page.Alloc_map; level = 0 });
    let set_link target field value =
      let before =
        Access_ctx.read ctx target (fun page -> Log_record.get_header page field)
      in
      Access_ctx.modify ctx txn target
        (Log_record.Set_header { field; before; after = value })
    in
    set_link last Log_record.Next_page (Log_record.link_value map_pid);
    set_link map_pid Log_record.Prev_page (Log_record.link_value last);
    Access_ctx.modify ctx txn map_pid
      (Log_record.Insert_row
         {
           slot = 0;
           row =
             Rowfmt.flags_row ~key:(key_of map_pid)
               ~flags:(flag_allocated lor flag_ever);
         });
    insert_row ctx txn pid ~flags
  end

(* A re-allocated page stays listed: if its transaction rolls back (or is
   rewound) the map row says free again and the next allocation takes it.
   An allocation that finds the row allocated drops the entry as stale,
   unless the re-allocating transaction is still active: it may yet roll
   back, so the entry is kept (and skipped) until it ends.  A [free] that
   was rolled back leaves an entry with no taker, dropped the same way. *)
let allocate t ctx txn ~typ ~level =
  let in_flight = function
    | Some taker -> Txn_manager.state taker = Txn_manager.Active
    | None -> false
  in
  let rec take kept = function
    | e :: rest -> (
        match find_row ctx e.pid with
        | Some (map_pid, slot, flags) when flags land flag_allocated = 0 ->
            t.free <- List.rev_append kept (e :: rest);
            e.taker <- Some txn;
            set_flags ctx txn map_pid slot (flag_allocated lor flag_ever);
            (* Re-allocation: preserve the previous incarnation's content
               and chain (paper §4.2(1)). *)
            let prev_image = Access_ctx.snapshot_page_image ctx e.pid in
            Access_ctx.modify ctx txn e.pid (Log_record.Preformat { prev_image });
            Access_ctx.modify ctx txn e.pid (Log_record.Format { typ; level });
            e.pid
        | Some _ when in_flight e.taker -> take (e :: kept) rest
        | Some _ -> take kept rest
        | None -> invalid_arg "Alloc_map.allocate: free page without map row")
    | [] ->
        t.free <- List.rev kept;
        let pid = fresh_page_id ctx txn in
        insert_row ctx txn pid ~flags:(flag_allocated lor flag_ever);
        Access_ctx.modify ctx txn pid (Log_record.Format { typ; level });
        pid
  in
  take [] t.free

let free t ctx txn pid =
  match find_row ctx pid with
  | Some (map_pid, slot, flags) when flags land flag_allocated <> 0 ->
      set_flags ctx txn map_pid slot flag_ever;
      t.free <- { pid; taker = None } :: t.free
  | Some _ -> invalid_arg "Alloc_map.free: page not allocated"
  | None -> invalid_arg "Alloc_map.free: unknown page"

let is_allocated ctx pid =
  match find_row ctx pid with
  | Some (_, _, flags) -> flags land flag_allocated <> 0
  | None -> false

let ever_allocated ctx pid =
  match find_row ctx pid with
  | Some (_, _, flags) -> flags land flag_ever <> 0
  | None -> false

let allocated_pages ctx =
  let acc = ref [] in
  ignore
    (find_map ctx first_page (fun _ page ->
         Slotted_page.iter page (fun _ row ->
             if Rowfmt.row_flags row land flag_allocated <> 0 then
               acc := Page_id.of_int (Int64.to_int (Rowfmt.row_key row)) :: !acc);
         None));
  List.sort Page_id.compare !acc
