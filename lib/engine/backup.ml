module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Disk = Rw_storage.Disk
module Media = Rw_storage.Media
module Io_stats = Rw_storage.Io_stats
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Latch = Rw_buffer.Latch
module Recovery = Rw_recovery.Recovery
module Split_lsn = Rw_core.Split_lsn

type t = {
  source : string;
  taken_at_lsn : Lsn.t;
  wall_us : float;
  images : (int * Page.t) list;  (** only pages that were ever written *)
  total_pages : int;  (** full file size, zero-filled cold regions included *)
}

let taken_at_lsn t = t.taken_at_lsn
let wall_us t = t.wall_us
let size_bytes t = t.total_pages * Page.page_size

let take db =
  let lsn = Database.checkpoint ~flush_pages:true db in
  let disk = Database.disk db in
  let stats = Io_stats.create () in
  let clock = Disk.clock disk in
  let media = Disk.media disk in
  let total_pages = Disk.page_count disk in
  let images = ref [] in
  for i = total_pages - 1 downto 0 do
    let pid = Page_id.of_int i in
    (* Every page of the file is streamed onto backup media, cold regions
       included — that is precisely the full-backup cost the paper's
       scheme avoids. *)
    Media.seq_read media clock (Disk.stats disk) Page.page_size;
    Media.seq_write media clock stats Page.page_size;
    if Disk.has_page disk pid then images := (i, Disk.read_page_nocost disk pid) :: !images
  done;
  {
    source = Database.name db;
    taken_at_lsn = lsn;
    wall_us = Database.now_us db;
    images = !images;
    total_pages;
  }

let restore_as_of t ~from ~wall_us =
  if wall_us < t.wall_us then
    invalid_arg "Backup.restore_as_of: requested time precedes the backup";
  let log = Database.log from in
  let split = Split_lsn.find ~log ~wall_us in
  let split_lsn = split.Split_lsn.split_lsn in
  let clock = Database.clock from in
  let media = Disk.media (Database.disk from) in
  (* 1. Full restore: stream every page from backup media onto fresh files.
     This is the fixed, database-size-proportional cost the paper's scheme
     avoids. *)
  let disk = Disk.create ~clock ~media () in
  let resident : (int, Page.t) Hashtbl.t = Hashtbl.create 1024 in
  (* Stream the whole backup back: every page of the file costs a read
     from backup media and a write to the fresh files; only pages with
     content are actually stored. *)
  Media.seq_read media clock (Disk.stats disk) (t.total_pages * Page.page_size);
  Media.seq_write media clock (Disk.stats disk) (t.total_pages * Page.page_size);
  Disk.extend disk t.total_pages;
  List.iter
    (fun (i, page) ->
      let pid = Page_id.of_int i in
      let page = Page.copy page in
      Page.seal page;
      (* Stored without further charge: the transfer was priced above. *)
      Disk.write_page_nocost disk pid page;
      Hashtbl.replace resident i page)
    t.images;
  (* Restore pipelines redo with the copy: pages it has just streamed are
     still in memory, so replay never stalls on random reads, and the final
     flush of replayed pages is one sorted sequential pass.  The pool covers
     the whole restored file. *)
  let source =
    {
      Buffer_pool.read =
        (fun pid ->
          match Hashtbl.find_opt resident (Page_id.to_int pid) with
          | Some page -> Page.copy page
          | None -> Disk.read_page disk pid);
      Buffer_pool.write =
        (fun pid page ->
          Page.seal page;
          Disk.write_page_seq disk pid page);
      (* Restore writes are already sequential; run continuations are the
         same stream. *)
      Buffer_pool.write_seq =
        Some
          (fun pid page ->
            Page.seal page;
            Disk.write_page_seq disk pid page);
      Buffer_pool.read_cached = None;
    }
  in
  let pool =
    Buffer_pool.create ~capacity:(max 1024 (List.length t.images + 16)) ~source ()
  in
  (* 2. Roll the copy forward by replaying every page record up to the
     split — the same redo loop as replica catch-up. *)
  ignore (Recovery.redo_range ~log ~pool ~from:t.taken_at_lsn ~upto:split_lsn : int);
  (* Initialization of the unused portion of the log (paper §6.2): a
     point-in-time restore still processes the log tail beyond the restore
     point, which is what makes restore cost independent of the point
     chosen. *)
  Log_manager.charge_scan log ~from:split_lsn ~upto:(Log_manager.end_lsn log);
  (* 3. Roll back transactions in flight at the split so the copy is
     transactionally consistent (same as point-in-time restore). *)
  (* Loser analysis is bounded by the last checkpoint before the split,
     exactly as in restart recovery. *)
  let analysis_start =
    if Lsn.is_nil split.Split_lsn.base_checkpoint then t.taken_at_lsn
    else split.Split_lsn.base_checkpoint
  in
  let losers = Recovery.losers_at ~log ~start:analysis_start ~upto:split_lsn in
  let apply pid f =
    let frame = Buffer_pool.fetch pool pid in
    Fun.protect
      ~finally:(fun () -> Buffer_pool.unpin pool frame)
      (fun () ->
        Latch.with_latch (Buffer_pool.frame_latch frame) Latch.Exclusive (fun () ->
            let p = Buffer_pool.page frame in
            match f p with
            | Some lsn ->
                Page.set_lsn p lsn;
                Buffer_pool.mark_dirty pool frame ~lsn
            | None -> Buffer_pool.mark_dirty pool frame ~lsn:split_lsn))
  in
  ignore (Recovery.undo_losers ~log ~losers:losers.Recovery.in_flight ~write_clr:false ~apply);
  Buffer_pool.flush_all pool;
  Database.view_over_pool
    ~name:(Printf.sprintf "%s_restored" t.source)
    ~base:from ~pool ~snapshot:None
