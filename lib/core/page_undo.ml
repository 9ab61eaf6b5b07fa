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
   priced I/O, all shared caches) and a pure apply.  The serial path is a
   batch of one; the batch pipeline runs the applies on pool workers.
   The plan holds each record as a span of its segment blob, immutable
   until a crash recycles its LSN, so it can cross domains. *)
type raw_plan = {
  rp_segment : Lsn.t array;  (* ascending chain LSNs in (as_of, chain top] *)
  rp_fpi : bool;  (* the earliest-FPI record follows the chain in [rp_records] *)
  rp_records : Log_manager.gathered option;  (* [None]: not gathered, forces the walk *)
}

(* What one page needs from the log: the earliest full page image after
   the target (if below the chain top), then the chain-index segment from
   the image's capture point ([prev_page_lsn]) down to [as_of].  [None] —
   a chain index that does not reach the chain top, or any lookup failure
   — sends the page to the walk, which then produces the right answer or
   the right exception. *)
let chain_request ~log ~as_of page =
  let pid = Page.id page in
  let top = Page.lsn page in
  if Lsn.(top <= as_of) then Some ([||], None)
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
      if Lsn.(start > as_of) && (n = 0 || not (Lsn.equal segment.(n - 1) start)) then None
      else Some (segment, fpi_lsn)
    with
    | req -> req
    | exception _ -> None

(* One log-ordered gather for the whole batch: each page asks for its
   chain segment with its image record (which lies above the segment)
   appended, so every request is ascending. *)
let plan_batch ~log ~as_of pages =
  let reqs = Array.map (chain_request ~log ~as_of) pages in
  let got =
    Log_manager.gather_batch log
      (Array.map
         (function
           | Some (segment, Some f) -> Array.append segment [| f |]
           | Some (segment, None) -> segment
           | None -> [||])
         reqs)
  in
  ( Array.mapi
      (fun i req ->
        match req with
        | Some (segment, fpi) ->
            { rp_segment = segment; rp_fpi = Option.is_some fpi; rp_records = got.b_pages.(i) }
        | None -> { rp_segment = [||]; rp_fpi = false; rp_records = None })
      reqs,
    got.b_windows_us )

(* The jump-start image, validated and blitted straight from its
   segment span. *)
let restore_fpi pid (g : Log_manager.gathered) k page =
  Log_record.image_in_place g.g_blob.(k) ~pos:g.g_pos.(k) ~len:g.g_len.(k) ~page:pid page

(* Chain record [k], validated against the page and the expected link
   ([prev_lo, prev_hi]) and undone from its bytes; returns its back
   pointer. *)
let undo_record pid (g : Log_manager.gathered) k ~prev_lo ~prev_hi page =
  Log_record.undo_in_place g.g_blob.(k) ~pos:g.g_pos.(k) ~len:g.g_len.(k) ~page:pid ~prev_lo
    ~prev_hi page

(* The page image before an apply, restored if the apply fails part-way;
   one per domain, since applies run on pool workers. *)
let pre_apply = Domain.DLS.new_key (fun () -> Bytes.create Page.page_size)

let apply_raw ~page ~as_of plan =
  let n = Array.length plan.rp_segment in
  match plan.rp_records with
  | None -> None
  | Some _ when n = 0 && not plan.rp_fpi ->
      Some { ops_undone = 0; log_records_read = 0; used_fpi = false }
  | Some records ->
      let pid = Page.id page in
      let saved = Domain.DLS.get pre_apply in
      Bytes.blit page 0 saved 0 Page.page_size;
      match
        if plan.rp_fpi then restore_fpi pid records n page;
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
          oldest_prev := undo_record pid records i ~prev_lo ~prev_hi page
        done;
        if n > 0 then Page.set_lsn page !oldest_prev;
        {
          ops_undone = n;
          log_records_read = n + Bool.to_int plan.rp_fpi;
          used_fpi = plan.rp_fpi;
        }
      with
      | r -> Some r
      | exception _ ->
          Bytes.blit saved 0 page 0 Page.page_size;
          None

(* The chain index yields the page's whole backward chain in one lookup,
   so the records are fetched in ascending LSN order (block locality)
   instead of pointer-chasing backwards.  Every link is validated against
   the records as they are undone; any mismatch — stale index, corrupt
   chain — or a failing undo restores the page and falls back to the
   pointer walk, which reproduces the walk's exact result and exception
   behaviour. *)
let prepare_page_as_of ~log ~page ~as_of =
  let plans, _ = plan_batch ~log ~as_of [| page |] in
  match apply_raw ~page ~as_of plans.(0) with
  | Some r -> note (Page.id page) r
  | None ->
      Obs.incr Probes.walk_fallbacks;
      prepare_page_as_of_walk ~log ~page ~as_of
