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

  let list t =
    Hashtbl.fold (fun i r acc -> (Page_id.of_int i, r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Page_id.compare a b)

end

(* A base record fully determines the page content by redo alone: a
   [Full_image] blits a complete image, a [Format] reinitialises the page.
   ([Preformat]'s redo is a no-op — its image is undo information.) *)
let is_base = function
  | Log_record.K_page_op (Log_record.K_full_image | Log_record.K_format)
  | Log_record.K_clr (Log_record.K_full_image | Log_record.K_format) ->
      true
  | _ -> false

(* The one redo apply: gathered record [k], at [lsn], redone onto [page]
   where it sits in its segment blob, unless the page LSN shows the image
   already reflects it.  Returns whether it applied. *)
let redo_record pid (g : Log_manager.gathered) k lsn page =
  Lsn.(Page.lsn page < lsn)
  && begin
       Log_record.redo_in_place g.g_blob.(k) ~pos:g.g_pos.(k) ~len:g.g_len.(k) ~page:pid page;
       Page.set_lsn page lsn;
       true
     end

let chain_suffix ~log pid ~from ~down_to ~no_base =
  let chain = Log_manager.chain_segment log pid ~from ~down_to in
  let lsns = Log_manager.located_lsns chain in
  let n = Array.length lsns in
  (* Newest base record wins: everything before it is irrelevant. *)
  let rec newest_base i =
    if i < 0 then begin
      no_base lsns.(0);
      0
    end
    else if is_base (Log_manager.peek_located log chain i).Log_record.p_kind then i
    else newest_base (i - 1)
  in
  let base = if n = 0 then 0 else newest_base (n - 1) in
  if base = 0 then chain else Log_manager.sub_located chain base (n - base)

let located ~log suffix = function
  | Some g -> g
  | None ->
      (* A record's position no longer holds it: peek each again to raise
         what the gather caught. *)
      let lsns = Log_manager.located_lsns suffix in
      Array.iteri (fun k _ -> ignore (Log_manager.peek_located log suffix k)) lsns;
      raise (Log_manager.No_such_record lsns.(0))

let redo_chain pid suffix g page =
  let applied = ref 0 in
  Array.iteri
    (fun k lsn -> if redo_record pid g k lsn page then incr applied)
    (Log_manager.located_lsns suffix);
  !applied

let replay_chain ~log pid ~from ~down_to ~no_base page =
  let suffix = chain_suffix ~log pid ~from ~down_to ~no_base in
  redo_chain pid suffix
    (located ~log suffix (Log_manager.gather_batch log [| suffix |]).b_pages.(0))
    page

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
    match Disk.read_page_checked disk pid with
    | p -> p
    | exception Disk.Corrupt_page _ -> (
        match repair_to_disk ~log ~disk ~wal_flush pid with
        | page -> page
        | exception Unrepairable { reason; _ } ->
            Quarantine.add quarantine pid reason;
            raise (Quarantined pid))
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
