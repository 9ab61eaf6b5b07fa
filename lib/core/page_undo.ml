module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

exception Chain_broken of { page : Page_id.t; lsn : Lsn.t }

type result = { ops_undone : int; log_records_read : int; used_fpi : bool }

(* One completed rewind, whichever strategy produced it.  The fallback
   path is accounted once, inside the walk. *)
let note pid (r : result) =
  Obs.incr Probes.page_rewinds;
  Obs.add Probes.ops_undone r.ops_undone;
  Obs.observe Probes.chain_length (float_of_int r.log_records_read);
  if Trace.on () then
    Trace.instant ~cat:"undo"
      ~args:
        [
          ("page", Trace.Int (Page_id.to_int pid));
          ("ops", Trace.Int r.ops_undone);
          ("log_reads", Trace.Int r.log_records_read);
          ("fpi", Trace.Int (if r.used_fpi then 1 else 0));
        ]
      "undo.prepare_page";
  r

let read_chain_record log pid lsn =
  match Log_manager.read log lsn with
  | r -> r
  | exception Log_manager.No_such_record _ -> raise (Chain_broken { page = pid; lsn })

(* Jump-start: restore the earliest full page image logged after the
   target point, if one exists below the page's current position; the
   image embeds the page LSN it was taken at, so the walk resumes from
   there and the log region above the image is never visited. *)
let try_fpi_jump ~log ~page ~as_of ~reads =
  let pid = Page.id page in
  match Log_manager.earliest_fpi_after log pid ~after:as_of with
  | Some fpi_lsn when Lsn.(fpi_lsn < Page.lsn page) -> (
      incr reads;
      let r = read_chain_record log pid fpi_lsn in
      match Log_record.op_of r with
      | Some (Log_record.Full_image { image }) ->
          Bytes.blit_string image 0 page 0 Page.page_size;
          true
      | _ -> raise (Chain_broken { page = pid; lsn = fpi_lsn }))
  | _ -> false

let prepare_page_as_of_walk ~log ~page ~as_of =
  let pid = Page.id page in
  let reads = ref 0 in
  let used_fpi = try_fpi_jump ~log ~page ~as_of ~reads in
  let undone = ref 0 in
  let rec walk () =
    let curr = Page.lsn page in
    if Lsn.(curr > as_of) then begin
      incr reads;
      let r = read_chain_record log pid curr in
      match r.Log_record.body with
      | Log_record.Page_op { page = rpid; prev_page_lsn; op }
      | Log_record.Clr { page = rpid; prev_page_lsn; op; _ } ->
          if not (Page_id.equal rpid pid) then raise (Chain_broken { page = pid; lsn = curr });
          Log_record.undo op page;
          incr undone;
          Page.set_lsn page prev_page_lsn;
          walk ()
      | _ -> raise (Chain_broken { page = pid; lsn = curr })
    end
  in
  walk ();
  note pid { ops_undone = !undone; log_records_read = !reads; used_fpi }

(* ---------- chain rewind: gather / apply ---------- *)

(* Both rewind paths split a page's rewind the same way: a gather (all
   priced I/O, all shared caches) and a pure apply.  The serial path runs
   them back to back; the batch pipeline runs the applies on pool workers.
   The plan holds each record either as a live decode or as a span of its
   segment blob, both immutable, so it can cross domains. *)
type raw_plan = {
  rp_segment : Lsn.t array;  (* ascending chain LSNs in (as_of, chain top] *)
  rp_records : Log_manager.gathered;  (* the chain records, at [0, n) *)
  rp_fpi : (Log_manager.gathered * int) option;  (* where the earliest-FPI record is *)
  rp_ok : bool;  (* gather succeeded; [false] forces the walk *)
}

let empty_plan log ok =
  { rp_segment = [||]; rp_records = Log_manager.gather log [||]; rp_fpi = None; rp_ok = ok }

(* Jump-start from the earliest full page image after the target, then
   the chain-index segment from the image's capture point
   ([prev_page_lsn]) down to [as_of].  With [prefetch] the whole set is
   fetched as block runs and read in one batch (the staged path);
   without, the image and the segment are read as the serial path always
   has.  A chain index that does not reach the chain top, and any fetch
   failure, make the plan not ok; the walk then produces the right answer
   or the right exception. *)
let gather ~prefetch ~log ~page ~as_of =
  let pid = Page.id page in
  let top = Page.lsn page in
  if Lsn.(top <= as_of) then empty_plan log true
  else
    match
      let fpi_lsn =
        match Log_manager.earliest_fpi_after log pid ~after:as_of with
        | Some f when Lsn.(f < top) -> Some f
        | _ -> None
      in
      let start =
        match fpi_lsn with
        | Some f -> (Log_manager.peek_record log f).Log_record.p_prev_page_lsn
        | None -> top
      in
      let segment =
        if Lsn.(start <= as_of) then [||]
        else Log_manager.chain_segment log pid ~from:start ~down_to:as_of
      in
      let n = Array.length segment in
      if Lsn.(start > as_of) && (n = 0 || not (Lsn.equal segment.(n - 1) start)) then
        empty_plan log false
      else
        match fpi_lsn with
        | None ->
            if prefetch then Log_manager.prefetch log (Array.to_list segment);
            let rp_records = Log_manager.gather log segment in
            { rp_segment = segment; rp_records; rp_fpi = None; rp_ok = true }
        | Some f when prefetch ->
            let all = Array.append segment [| f |] in
            Log_manager.prefetch log (Array.to_list all);
            let got = Log_manager.gather log all in
            { rp_segment = segment; rp_records = got; rp_fpi = Some (got, n); rp_ok = true }
        | Some f ->
            let fpi = Log_manager.gather log [| f |] in
            let rp_records = Log_manager.gather log segment in
            { rp_segment = segment; rp_records; rp_fpi = Some (fpi, 0); rp_ok = true }
    with
    | plan -> plan
    | exception _ -> empty_plan log false

let plan_raw = gather ~prefetch:true

(* At most one image per rewind, so a missed one is simply decoded. *)
let restore_fpi pid (g, k) page =
  let r =
    let d = g.Log_manager.g_decoded.(k) in
    if d != Log_manager.not_cached then d
    else Log_record.decode (Bytes.sub_string g.g_blob.(k) g.g_pos.(k) g.g_len.(k))
  in
  match (Log_record.page_of r, Log_record.op_of r) with
  | Some rpid, Some (Log_record.Full_image { image }) when Page_id.equal rpid pid ->
      Bytes.blit_string image 0 page 0 Page.page_size
  | _ -> raise Exit

(* Chain record [k], validated against the page and the expected link
   ([prev_lo, prev_hi]) and undone — from its live decode on a cache hit,
   from its bytes otherwise; returns its back pointer. *)
let undo_record pid (g : Log_manager.gathered) k ~prev_lo ~prev_hi page =
  let r = g.g_decoded.(k) in
  if r == Log_manager.not_cached then
    Log_record.undo_in_place g.g_blob.(k) ~pos:g.g_pos.(k) ~len:g.g_len.(k) ~page:pid ~prev_lo
      ~prev_hi page
  else
    match r.Log_record.body with
    | Log_record.Page_op { page = rpid; prev_page_lsn; op }
    | Log_record.Clr { page = rpid; prev_page_lsn; op; _ }
      when Page_id.equal rpid pid && Lsn.(prev_page_lsn >= prev_lo && prev_page_lsn <= prev_hi) ->
        Log_record.undo op page;
        prev_page_lsn
    | _ -> raise Exit

(* The page image before an apply, restored if the apply fails part-way;
   one per domain, since applies run on pool workers. *)
let pre_apply = Domain.DLS.new_key (fun () -> Bytes.create Page.page_size)

let apply_raw ~page ~as_of plan =
  let n = Array.length plan.rp_segment in
  if not plan.rp_ok then None
  else if n = 0 && Option.is_none plan.rp_fpi then
    Some { ops_undone = 0; log_records_read = 0; used_fpi = false }
  else begin
    let pid = Page.id page in
    let saved = Domain.DLS.get pre_apply in
    Bytes.blit page 0 saved 0 Page.page_size;
    match
      Option.iter (fun f -> restore_fpi pid f page) plan.rp_fpi;
      (* The authoritative chain top is the LSN embedded in the image, as
         the walk reads it after its blit; the gather built the segment
         from the record header, so a mismatch fails here. *)
      let start = Page.lsn page in
      if Lsn.(start <= as_of) then (if n > 0 then raise Exit)
      else if not (Lsn.equal plan.rp_segment.(n - 1) start) then raise Exit;
      (* Newest record first, as the walk applies them.  The intermediate
         page LSNs the walk would stamp are all overwritten by the next
         undo's stamp; only the oldest record's back pointer is
         observable. *)
      let oldest_prev = ref start in
      for i = n - 1 downto 0 do
        let prev_lo = if i = 0 then Lsn.nil else plan.rp_segment.(i - 1) in
        let prev_hi = if i = 0 then as_of else prev_lo in
        oldest_prev := undo_record pid plan.rp_records i ~prev_lo ~prev_hi page
      done;
      if n > 0 then Page.set_lsn page !oldest_prev;
      {
        ops_undone = n;
        log_records_read = n + Bool.to_int (Option.is_some plan.rp_fpi);
        used_fpi = Option.is_some plan.rp_fpi;
      }
    with
    | r -> Some r
    | exception _ ->
        Bytes.blit saved 0 page 0 Page.page_size;
        None
  end

(* The chain index yields the page's whole backward chain in one lookup,
   so the records are fetched in ascending LSN order (block locality)
   instead of pointer-chasing backwards.  Every link is validated against
   the records as they are undone; any mismatch — stale index, corrupt
   chain — or a failing undo restores the page and falls back to the
   pointer walk, which reproduces the walk's exact result and exception
   behaviour. *)
let prepare_page_as_of ~log ~page ~as_of =
  match apply_raw ~page ~as_of (gather ~prefetch:false ~log ~page ~as_of) with
  | Some r -> note (Page.id page) r
  | None -> prepare_page_as_of_walk ~log ~page ~as_of
