module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Io_stats = Rw_storage.Io_stats
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Trace = Rw_obs.Trace

exception Unrepairable of { page : Page_id.t; reason : string }
exception Quarantined of Page_id.t

module Quarantine = struct
  type t = (int, string) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let add t pid reason = Hashtbl.replace t (Page_id.to_int pid) reason
  let mem t pid = Hashtbl.mem t (Page_id.to_int pid)
  let remove t pid = Hashtbl.remove t (Page_id.to_int pid)

  let list t =
    Hashtbl.fold (fun i r acc -> (Page_id.of_int i, r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Page_id.compare a b)

  let count t = Hashtbl.length t
end

(* A base record fully determines the page content by redo alone: a
   [Full_image] blits a complete image, a [Format] reinitialises the page.
   ([Preformat]'s redo is a no-op — its image is undo information.) *)
let is_base = function
  | Log_record.K_page_op (Log_record.K_full_image | Log_record.K_format)
  | Log_record.K_clr (Log_record.K_full_image | Log_record.K_format) ->
      true
  | _ -> false

let replay_chain ~log pid ~from ~down_to ~no_base page =
  let chain = Log_manager.chain_segment log pid ~from ~down_to in
  let n = Array.length chain in
  (* Newest base record wins: everything before it is irrelevant. *)
  let rec newest_base i =
    if i < 0 then begin
      no_base chain.(0);
      0
    end
    else if is_base (Log_manager.peek_record log chain.(i)).Log_record.p_kind then i
    else newest_base (i - 1)
  in
  let base = if n = 0 then 0 else newest_base (n - 1) in
  let suffix = Array.sub chain base (n - base) in
  let records = Log_manager.read_segment log suffix in
  let applied = ref 0 in
  Array.iteri
    (fun i r ->
      let lsn = suffix.(i) in
      (* The page-LSN guard: records the image already reflects are skipped. *)
      if Lsn.(Page.lsn page < lsn) then
        match Log_record.op_of r with
        | Some op ->
            Log_record.redo pid op page;
            Page.set_lsn page lsn;
            incr applied
        | None -> ())
    records;
  !applied

let rebuild ~log pid =
  (* No base retained: replay is only sound from the page's genesis, i.e.
     if the oldest retained chain record is the chain's first. *)
  let genesis oldest =
    if not (Lsn.is_nil (Log_manager.peek_record log oldest).Log_record.p_prev_page_lsn) then
      raise (Unrepairable { page = pid; reason = "history truncated past last full image" })
  in
  let page = Page.create ~id:pid ~typ:Page.Free in
  match
    replay_chain ~log pid ~from:(Log_manager.end_lsn log) ~down_to:Lsn.nil ~no_base:genesis page
  with
  | 0 -> raise (Unrepairable { page = pid; reason = "no retained log history" })
  | _ -> page
  | exception (Unrepairable _ as e) -> raise e
  | exception e ->
      raise
        (Unrepairable { page = pid; reason = Printf.sprintf "replay failed: %s" (Printexc.to_string e) })

let repair_to_disk ~log ~disk ~wal_flush pid =
  let ts = if Trace.on () then Trace.now () else 0.0 in
  let page = rebuild ~log pid in
  (* WAL rule: the chain we replayed must be durable before the rebuilt
     page overwrites the stored (corrupt) image. *)
  wal_flush (Page.lsn page);
  Page.seal page;
  Disk.write_page_retrying disk pid page;
  let st = Disk.stats disk in
  st.Io_stats.pages_repaired <- st.Io_stats.pages_repaired + 1;
  if Trace.on () then
    Trace.complete ~cat:"buf" ~ts
      ~args:[ ("page", Trace.Int (Page_id.to_int pid)) ]
      "buf.repair";
  page

let source ~disk ~log ~wal_flush ~quarantine () =
  let read pid =
    if Quarantine.mem quarantine pid then raise (Quarantined pid);
    let p = Disk.read_page_retrying disk pid in
    if Page.verify p then p
    else begin
      let st = Disk.stats disk in
      st.Io_stats.corruptions_detected <- st.Io_stats.corruptions_detected + 1;
      match repair_to_disk ~log ~disk ~wal_flush pid with
      | page -> page
      | exception Unrepairable { reason; _ } ->
          Quarantine.add quarantine pid reason;
          raise (Quarantined pid)
    end
  in
  {
    Buffer_pool.read;
    write =
      (fun pid p ->
        Page.seal p;
        Disk.write_page_retrying disk pid p);
    write_seq =
      Some
        (fun pid p ->
          Page.seal p;
          Disk.write_page_seq_retrying disk pid p);
    read_cached = None;
  }
