module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Lsn = Rw_storage.Lsn
module Int_tbl = Rw_storage.Int_tbl
module Sim_clock = Rw_storage.Sim_clock
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Latch = Rw_buffer.Latch
module Txn_manager = Rw_txn.Txn_manager

type fpi = Off | Every_mods of int | Budget_bytes of int

let default_fpi = Budget_bytes Page.page_size

type t = {
  pool : Buffer_pool.t;
  txns : Txn_manager.t;
  log : Log_manager.t;
  clock : Sim_clock.t;
  fpi : fpi;
  since_image : int Int_tbl.t;
      (* page -> modifications ([Every_mods]) or chain bytes
         ([Budget_bytes]) logged since its last image *)
  mutable hooks : (int * (Page_id.t -> Page.t -> unit)) list;
  mutable next_hook : int;
}

(* Modeled CPU cost of one access-method operation. *)
let cpu_op_us = 1.0

let create ~pool ~txns ~log ~clock ?(fpi = default_fpi) () =
  {
    pool;
    txns;
    log;
    clock;
    fpi;
    since_image = Int_tbl.create 256;
    hooks = [];
    next_hook = 0;
  }

let add_pre_modify_hook t f =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <- (id, f) :: t.hooks;
  id

let remove_pre_modify_hook t id = t.hooks <- List.filter (fun (i, _) -> i <> id) t.hooks

let fire_hooks t pid page = List.iter (fun (_, f) -> f pid page) t.hooks

let txns t = t.txns
let log t = t.log
let fpi t = t.fpi

(* Emit a full page image once the page's chain since its last image has
   grown by one policy step: N modifications, or [b] bytes of log — the
   just-appended record at [lsn] ends at [end_lsn].  FPIs are system
   records outside any transaction but on the page's chain, so backward
   traversal can use them. *)
let maybe_emit_fpi t pid page frame lsn =
  let step, limit =
    match t.fpi with
    | Off -> (0, 0)
    | Every_mods n -> (1, n)
    | Budget_bytes b -> (Lsn.to_int (Log_manager.end_lsn t.log) - Lsn.to_int lsn, b)
  in
  if limit > 0 then begin
    let key = Page_id.to_int pid in
    let n = (match Int_tbl.find t.since_image key with n -> n | exception Not_found -> 0) + step in
    if n >= limit then begin
      Int_tbl.replace t.since_image key 0;
      let lsn = Log_manager.append_image t.log ~page:pid ~prev_page_lsn:(Page.lsn page) page in
      Page.set_lsn page lsn;
      Buffer_pool.mark_dirty t.pool frame ~lsn
    end
    else Int_tbl.replace t.since_image key n
  end

let modify t txn pid op =
  Sim_clock.advance_us t.clock cpu_op_us;
  Buffer_pool.with_frame t.pool pid ~mode:Latch.Exclusive (fun frame ->
      let page = Buffer_pool.page frame in
      fire_hooks t pid page;
      let prev_page_lsn = Page.lsn page in
      let lsn = Txn_manager.log_page_op t.txns txn ~page:pid ~prev_page_lsn op in
      Log_record.redo pid op page;
      Page.set_lsn page lsn;
      Buffer_pool.mark_dirty t.pool frame ~lsn;
      maybe_emit_fpi t pid page frame lsn)

let read t pid f =
  Sim_clock.advance_us t.clock (cpu_op_us /. 2.0);
  Buffer_pool.with_page t.pool pid ~mode:Latch.Shared f

let resident_at t pid lsn = Buffer_pool.resident_at t.pool pid lsn
let pool_changes t = Buffer_pool.changes t.pool

let page_writer t : Txn_manager.page_writer =
 fun pid apply ->
  Sim_clock.advance_us t.clock cpu_op_us;
  Buffer_pool.with_frame t.pool pid ~mode:Latch.Exclusive (fun frame ->
      let page = Buffer_pool.page frame in
      fire_hooks t pid page;
      let lsn = apply page in
      Buffer_pool.mark_dirty t.pool frame ~lsn;
      maybe_emit_fpi t pid page frame lsn)

let snapshot_page_image t pid =
  Buffer_pool.with_page t.pool pid ~mode:Latch.Shared (fun page -> Bytes.to_string page)
