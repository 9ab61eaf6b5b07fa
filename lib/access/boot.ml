module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Log_record = Rw_wal.Log_record

let page_id = Page_id.of_int 0
let key_next_page_id = 0L
let key_catalog_root = 1L
let key_next_table_id = 2L

let init ctx txn =
  Access_ctx.modify ctx txn page_id (Log_record.Format { typ = Page.Boot; level = 0 })

let get_from_page page key =
  match Slotted_page.find_key page key with
  | Either.Left i -> Some (Rowfmt.row_value (Slotted_page.get page ~at:i))
  | Either.Right _ -> None

let get_exn ?(seen = fun _ _ -> ()) ctx key =
  match
    Access_ctx.read ctx page_id (fun page ->
        seen page_id page;
        get_from_page page key)
  with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Boot.get_exn: no setting %Ld" key)

let set ctx txn key value =
  let row = Rowfmt.kv_row ~key ~value in
  let op =
    Access_ctx.read ctx page_id (fun page ->
        match Slotted_page.find_key page key with
        | Either.Left i ->
            Log_record.Update_row { slot = i; before = Slotted_page.get page ~at:i; after = row }
        | Either.Right i -> Log_record.Insert_row { slot = i; row })
  in
  Access_ctx.modify ctx txn page_id op
