module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Sparse_file = Rw_storage.Sparse_file
module Sim_clock = Rw_storage.Sim_clock
module Buffer_pool = Rw_buffer.Buffer_pool
module Access_ctx = Rw_access.Access_ctx
module Txn_manager = Rw_txn.Txn_manager
module Recovery = Rw_recovery.Recovery

exception Active_transactions

type t = {
  sparse : Sparse_file.t;
  pool : Buffer_pool.t;
  ctx : Access_ctx.t;
  hook : int;
  copied : (int, unit) Hashtbl.t;
  mutable dropped : bool;
}

let pool t = t.pool
let pages_copied t = Hashtbl.length t.copied
let copy_bytes t = Rw_storage.Sparse_file.allocated_bytes t.sparse

let create ~ctx ~primary_pool ~primary_disk ~txns ~log ~clock ~media =
  if Txn_manager.active_txns txns <> [] then raise Active_transactions;
  (* Flush so that every unchanged page is readable from the primary
     files at its as-of-creation version. *)
  ignore
    (Recovery.checkpoint ~log ~pool:primary_pool ~txns ~wall_us:(Sim_clock.now_us clock)
       ~flush_pages:true ()
      : Lsn.t);
  let sparse = Sparse_file.create ~clock ~media () in
  let copied = Hashtbl.create 256 in
  (* The copy-on-write interception: the first time a page is about to be
     modified after creation, its prior image goes to the sparse file —
     unconditionally, whether or not any query will ever want it. *)
  let hook pid page =
    let key = Page_id.to_int pid in
    if not (Hashtbl.mem copied key) then begin
      Hashtbl.replace copied key ();
      Sparse_file.write sparse pid (Page.copy page)
    end
  in
  let hook = Access_ctx.add_pre_modify_hook ctx hook in
  let source =
    {
      Buffer_pool.read =
        (fun pid ->
          match Sparse_file.read sparse pid with
          | Some page -> page
          | None -> Disk.read_page_checked primary_disk pid);
      Buffer_pool.write = (fun pid page -> Sparse_file.write sparse pid page);
      Buffer_pool.write_seq = None;
      Buffer_pool.read_cached = None;
    }
  in
  let pool = Buffer_pool.create ~capacity:256 ~source () in
  { sparse; pool; ctx; hook; copied; dropped = false }

let drop t =
  if not t.dropped then begin
    t.dropped <- true;
    Access_ctx.remove_pre_modify_hook t.ctx t.hook;
    Sparse_file.drop t.sparse
  end
