module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Log_record = Rw_wal.Log_record

type t = { first : Page_id.t }

type rid = { page : Page_id.t; slot : int }

(* Rows are stored with a one-byte liveness prefix so a delete can leave a
   stable tombstone behind: RIDs held elsewhere never shift. *)
let live_prefix = "\001"
let tombstone = "\000"

let encode row = live_prefix ^ row
let is_live stored = String.length stored > 0 && stored.[0] = '\001'
let decode stored = String.sub stored 1 (String.length stored - 1)

let of_first first = { first }
let first t = t.first

let create ctx alloc txn =
  let first = Alloc_map.allocate alloc ctx txn ~typ:Page.Heap ~level:0 in
  (* Tail pointer: the first page's [special] field names the last page. *)
  Access_ctx.modify ctx txn first
    (Log_record.Set_header
       { field = Log_record.Special; before = 0L; after = Log_record.link_value first });
  { first }

let tail ctx t =
  Access_ctx.read ctx t.first (fun page -> Page_id.of_int (Int64.to_int (Page.special page)))

let insert ctx alloc txn t row =
  let stored = encode row in
  let last = tail ctx t in
  let fits, nslots =
    Access_ctx.read ctx last (fun page ->
        (Slotted_page.free_space page >= String.length stored, Slotted_page.count page))
  in
  if fits then begin
    Access_ctx.modify ctx txn last (Log_record.Insert_row { slot = nslots; row = stored });
    { page = last; slot = nslots }
  end
  else begin
    let fresh = Alloc_map.allocate alloc ctx txn ~typ:Page.Heap ~level:0 in
    let link pid field after =
      let before = Access_ctx.read ctx pid (fun page -> Log_record.get_header page field) in
      Access_ctx.modify ctx txn pid (Log_record.Set_header { field; before; after })
    in
    link last Log_record.Next_page (Log_record.link_value fresh);
    link fresh Log_record.Prev_page (Log_record.link_value last);
    link t.first Log_record.Special (Log_record.link_value fresh);
    Access_ctx.modify ctx txn fresh (Log_record.Insert_row { slot = 0; row = stored });
    { page = fresh; slot = 0 }
  end

let get ctx t rid =
  ignore t;
  let stored = Access_ctx.read ctx rid.page (fun page -> Slotted_page.get page ~at:rid.slot) in
  if is_live stored then decode stored else raise Not_found

let delete ctx txn t rid =
  ignore t;
  let before = Access_ctx.read ctx rid.page (fun page -> Slotted_page.get page ~at:rid.slot) in
  if not (is_live before) then raise Not_found;
  Access_ctx.modify ctx txn rid.page
    (Log_record.Update_row { slot = rid.slot; before; after = tombstone })

let update ctx txn t rid row =
  ignore t;
  let before = Access_ctx.read ctx rid.page (fun page -> Slotted_page.get page ~at:rid.slot) in
  if not (is_live before) then raise Not_found;
  Access_ctx.modify ctx txn rid.page
    (Log_record.Update_row { slot = rid.slot; before; after = encode row })

let iter ctx t ~f =
  let rec walk pid =
    if not (Page_id.is_nil pid) then begin
      let rows, next =
        Access_ctx.read ctx pid (fun page ->
            ( Slotted_page.fold page ~init:[] ~f:(fun acc slot stored ->
                  if is_live stored then ({ page = pid; slot }, decode stored) :: acc else acc),
              Page.next_page page ))
      in
      List.iter (fun (rid, row) -> f rid row) (List.rev rows);
      walk next
    end
  in
  walk t.first

let count ctx t =
  let n = ref 0 in
  iter ctx t ~f:(fun _ _ -> incr n);
  !n

let pages ctx t =
  let rec walk pid acc =
    if Page_id.is_nil pid then List.rev acc
    else walk (Access_ctx.read ctx pid (fun page -> Page.next_page page)) (pid :: acc)
  in
  walk t.first []

let drop ctx alloc txn t =
  List.iter (fun pid -> Alloc_map.free alloc ctx txn pid) (pages ctx t)
