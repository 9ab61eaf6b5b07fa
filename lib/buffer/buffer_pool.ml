module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Lsn = Rw_storage.Lsn
module Disk = Rw_storage.Disk
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

type source = {
  read : Page_id.t -> Page.t;
  write : Page_id.t -> Page.t -> unit;
  write_seq : (Page_id.t -> Page.t -> unit) option;
      (* sequential continuation of a write run: no seek, transfer only *)
  read_cached : (Page_id.t -> Page.t option) option;
      (* zero-cost peek consulted on a pool miss before the priced [read];
         snapshot views wire this to the shared prepared-page cache *)
}

type frame = {
  id : Page_id.t;
  page : Page.t;
  mutable pin_count : int;
  mutable dirty : bool;
  mutable rec_lsn : Lsn.t;
  mutable last_used : int;
  latch : Latch.t;
}

(* Frames by page id.  Page ids are dense small integers, so the identity
   is a good hash, and a lookup skips the polymorphic [Hashtbl.hash]. *)
module Frames = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  capacity : int;
  source : source;
  wal_flush : Lsn.t -> unit;
  frames : frame Frames.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let of_disk disk =
  {
    read = Disk.read_page_checked disk;
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

let create ~capacity ~source ?(wal_flush = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  {
    capacity;
    source;
    wal_flush;
    frames = Frames.create (2 * capacity);
    tick = 0;
    hits = 0;
    misses = 0;
  }

let page f = f.page
let frame_latch f = f.latch
let pin_count f = f.pin_count
let capacity t = t.capacity
let resident t = Frames.length t.frames
let hits t = t.hits
let misses t = t.misses

let write_back t f =
  if f.dirty then begin
    (* WAL rule: the log covering this page's changes must be durable
       before the page overwrites its prior version on disk. *)
    t.wal_flush (Page.lsn f.page);
    t.source.write f.id f.page;
    f.dirty <- false;
    f.rec_lsn <- Lsn.nil;
    Obs.incr Probes.writebacks
  end

let evict_one t =
  let victim = ref None in
  Frames.iter
    (fun _ f ->
      if f.pin_count = 0 && Latch.is_free f.latch then
        match !victim with
        | Some v when v.last_used <= f.last_used -> ()
        | _ -> victim := Some f)
    t.frames;
  match !victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some f ->
      write_back t f;
      Frames.remove t.frames (Page_id.to_int f.id);
      Obs.incr Probes.evictions

let fetch t pid =
  t.tick <- t.tick + 1;
  match Frames.find_opt t.frames (Page_id.to_int pid) with
  | Some f ->
      t.hits <- t.hits + 1;
      Obs.incr Probes.fetch_hits;
      f.pin_count <- f.pin_count + 1;
      f.last_used <- t.tick;
      f
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr Probes.fetch_misses;
      if Frames.length t.frames >= t.capacity then evict_one t;
      if Trace.on () then
        Trace.instant ~cat:"buf"
          ~args:[ ("page", Trace.Int (Page_id.to_int pid)) ]
          "buf.fetch_miss";
      let page =
        match t.source.read_cached with
        | Some peek -> ( match peek pid with Some p -> p | None -> t.source.read pid)
        | None -> t.source.read pid
      in
      let f =
        {
          id = pid;
          page;
          pin_count = 1;
          dirty = false;
          rec_lsn = Lsn.nil;
          last_used = t.tick;
          latch = Latch.create ();
        }
      in
      Frames.replace t.frames (Page_id.to_int pid) f;
      f

let resident_lsn t pid =
  match Frames.find_opt t.frames (Page_id.to_int pid) with
  | Some f -> Some (Page.lsn f.page)
  | None -> None

(* Install an already-read page with exactly the bookkeeping a fetch miss
   would have done — miss count, probe, eviction, trace — minus the pin.
   The batched scrub publishes its sweep reads through this so a scrubbed
   pool is indistinguishable from one whose pages were fetched one at a
   time.  A page that became resident since the caller read its copy is
   left alone: the framed version may be newer. *)
let admit t pid page =
  if not (Frames.mem t.frames (Page_id.to_int pid)) then begin
    t.tick <- t.tick + 1;
    t.misses <- t.misses + 1;
    Obs.incr Probes.fetch_misses;
    if Frames.length t.frames >= t.capacity then evict_one t;
    if Trace.on () then
      Trace.instant ~cat:"buf"
        ~args:[ ("page", Trace.Int (Page_id.to_int pid)) ]
        "buf.fetch_miss";
    let f =
      {
        id = pid;
        page;
        pin_count = 0;
        dirty = false;
        rec_lsn = Lsn.nil;
        last_used = t.tick;
        latch = Latch.create ();
      }
    in
    Frames.replace t.frames (Page_id.to_int pid) f
  end

let unpin _t f =
  if f.pin_count <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  f.pin_count <- f.pin_count - 1

let with_page t pid ~mode f =
  let frame = fetch t pid in
  let finally () = unpin t frame in
  match Latch.with_latch frame.latch mode (fun () -> f frame.page) with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let mark_dirty _t f ~lsn =
  if not f.dirty then begin
    f.dirty <- true;
    f.rec_lsn <- lsn
  end

let dirty_page_table t =
  Frames.fold (fun _ f acc -> if f.dirty then (f.id, f.rec_lsn) :: acc else acc) t.frames []
  |> List.sort (fun (a, _) (b, _) -> Page_id.compare a b)

let flush_all t =
  let dirty =
    Frames.fold (fun _ f acc -> if f.dirty then f :: acc else acc) t.frames []
    |> List.sort (fun a b -> Page_id.compare a.id b.id)
  in
  match dirty with
  | [] -> ()
  | _ ->
      let ts = if Trace.on () then Trace.now () else 0.0 in
      (* One WAL barrier for the whole batch instead of one per page. *)
      let max_lsn = List.fold_left (fun acc f -> Lsn.max acc (Page.lsn f.page)) Lsn.nil dirty in
      t.wal_flush max_lsn;
      (* Page-id order: the head of each contiguous run pays the seek, the
         rest of the run streams sequentially — the write-side mirror of the
         rewind gather's run pricing. *)
      let rec go prev = function
        | [] -> ()
        | f :: rest ->
            let pid = Page_id.to_int f.id in
            (match t.source.write_seq with
            | Some wseq when prev >= 0 && pid = prev + 1 -> wseq f.id f.page
            | _ -> t.source.write f.id f.page);
            f.dirty <- false;
            f.rec_lsn <- Lsn.nil;
            Obs.incr Probes.writebacks;
            go pid rest
      in
      go (-1) dirty;
      if Trace.on () then
        Trace.complete ~cat:"buf" ~ts
          ~args:[ ("pages", Trace.Int (List.length dirty)) ]
          "buf.flush_all"

let drop_all t =
  Frames.iter
    (fun _ f -> if f.pin_count > 0 then failwith "Buffer_pool.drop_all: frame pinned")
    t.frames;
  Frames.reset t.frames
