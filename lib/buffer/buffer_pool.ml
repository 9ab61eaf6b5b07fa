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
  key : int; (* the page id's int form *)
  page : Page.t;
  mutable pin_count : int;
  mutable dirty_ix : int; (* index in the pool's dirty set, or -1 when clean *)
  mutable rec_lsn : Lsn.t;
  mutable last_used : int;
  latch : Latch.t;
}

(* The frame every empty slot of a table and the dirty set holds.  It is
   one module-level value, so it is in the major heap once a program has
   run a minor collection, and [Array.make] fills a large array with it
   without first forcing one (as it must for a young value).  Its key is
   below every page id's. *)
let empty =
  {
    key = -2;
    page = Bytes.empty;
    pin_count = 0;
    dirty_ix = -1;
    rec_lsn = Lsn.nil;
    last_used = 0;
    latch = Latch.create ();
  }

(* Frames live in one open-addressed table of a power-of-two size at least
   twice the capacity, so it is at most half full.  A page's home slot is
   its id land [mask] (page ids are dense small integers); a lookup probes
   forward from there to the page's frame or an empty slot, and a removal
   shifts the rest of its probe run back (no tombstones).  The dirty
   frames are also kept in [dirty.(0 .. ndirty - 1)], each knowing its own
   index there, so a checkpoint reads only them. *)
type t = {
  capacity : int;
  source : source;
  wal_flush : Lsn.t -> unit;
  slots : frame array;
  mask : int;
  mutable count : int;
  dirty : frame array;
  mutable ndirty : int;
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
  let size = ref 2 in
  while !size < 2 * capacity do
    size := 2 * !size
  done;
  {
    capacity;
    source;
    wal_flush;
    slots = Array.make !size empty;
    mask = !size - 1;
    count = 0;
    dirty = Array.make capacity empty;
    ndirty = 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let page f = f.page
let frame_latch f = f.latch
let pin_count f = f.pin_count
let capacity t = t.capacity
let resident t = t.count
let hits t = t.hits
let misses t = t.misses

(* The frame of page [key], or [empty]: a probe from slot [i] on.  A
   top-level function, so a lookup allocates no closure. *)
let rec probe slots mask key i =
  let f = Array.unsafe_get slots i in
  if f.key = key || f == empty then f else probe slots mask key ((i + 1) land mask)

let find t key = probe t.slots t.mask key (key land t.mask)

let insert t f =
  let slots = t.slots and mask = t.mask in
  let i = ref (f.key land mask) in
  while Array.unsafe_get slots !i != empty do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- f;
  t.count <- t.count + 1

(* Empty slot [i] and move each later frame of its probe run whose home
   slot is not in the cyclic range (i, j] back into the hole. *)
let remove_slot t i =
  let slots = t.slots and mask = t.mask in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while slots.(!j) != empty do
    let home = slots.(!j).key land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      slots.(!hole) <- slots.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  slots.(!hole) <- empty;
  t.count <- t.count - 1

let add_dirty t f =
  f.dirty_ix <- t.ndirty;
  t.dirty.(t.ndirty) <- f;
  t.ndirty <- t.ndirty + 1

(* Swap-with-last removal from the dirty set. *)
let remove_dirty t f =
  let n = t.ndirty - 1 in
  let last = t.dirty.(n) in
  t.dirty.(f.dirty_ix) <- last;
  last.dirty_ix <- f.dirty_ix;
  t.dirty.(n) <- empty;
  t.ndirty <- n;
  f.dirty_ix <- -1;
  f.rec_lsn <- Lsn.nil

let write_back t f =
  if f.dirty_ix >= 0 then begin
    (* WAL rule: the log covering this page's changes must be durable
       before the page overwrites its prior version on disk. *)
    t.wal_flush (Page.lsn f.page);
    t.source.write (Page_id.of_int f.key) f.page;
    remove_dirty t f;
    Obs.incr Probes.writebacks
  end

(* The least recently used frame that is neither pinned nor latched.
   [last_used] values are distinct, so the victim does not depend on the
   order of the slots. *)
let evict_one t =
  let slots = t.slots in
  let victim = ref (-1) and oldest = ref max_int in
  for i = 0 to Array.length slots - 1 do
    let f = Array.unsafe_get slots i in
    if f != empty && f.pin_count = 0 && f.last_used < !oldest && Latch.is_free f.latch then begin
      victim := i;
      oldest := f.last_used
    end
  done;
  if !victim < 0 then failwith "Buffer_pool: all frames pinned";
  let f = slots.(!victim) in
  write_back t f;
  remove_slot t !victim;
  (* The pool owns its frames (every source returns a private copy), so
     the victim's buffer can serve the next read. *)
  Page.release f.page;
  Obs.incr Probes.evictions

(* The bookkeeping of a miss before the page is read: count, probe,
   eviction when full, trace. *)
let miss t pid =
  t.misses <- t.misses + 1;
  Obs.incr Probes.fetch_misses;
  if t.count >= t.capacity then evict_one t;
  if Trace.on () then
    Trace.instant ~cat:"buf" ~args:[ ("page", Trace.Int (Page_id.to_int pid)) ] "buf.fetch_miss"

let new_frame t key page ~pin_count =
  let f =
    {
      key;
      page;
      pin_count;
      dirty_ix = -1;
      rec_lsn = Lsn.nil;
      last_used = t.tick;
      latch = Latch.create ();
    }
  in
  insert t f;
  f

let fetch t pid =
  t.tick <- t.tick + 1;
  let key = Page_id.to_int pid in
  let f = find t key in
  if f != empty then begin
    t.hits <- t.hits + 1;
    Obs.incr Probes.fetch_hits;
    f.pin_count <- f.pin_count + 1;
    f.last_used <- t.tick;
    f
  end
  else begin
    miss t pid;
    let page =
      match t.source.read_cached with
      | Some peek -> ( match peek pid with Some p -> p | None -> t.source.read pid)
      | None -> t.source.read pid
    in
    new_frame t key page ~pin_count:1
  end

let resident_lsn t pid =
  let f = find t (Page_id.to_int pid) in
  if f == empty then None else Some (Page.lsn f.page)

let resident_at t pid lsn =
  let f = find t (Page_id.to_int pid) in
  f != empty && Lsn.equal (Page.lsn f.page) lsn

(* Install an already-read page with exactly the bookkeeping a fetch miss
   would have done — miss count, probe, eviction, trace — minus the pin.
   The batched scrub publishes its sweep reads through this so a scrubbed
   pool is indistinguishable from one whose pages were fetched one at a
   time.  A page that became resident since the caller read its copy is
   left alone: the framed version may be newer. *)
let admit t pid page =
  let key = Page_id.to_int pid in
  if find t key == empty then begin
    t.tick <- t.tick + 1;
    miss t pid;
    ignore (new_frame t key page ~pin_count:0 : frame)
  end

let unpin _t f =
  if f.pin_count <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  f.pin_count <- f.pin_count - 1

(* Latch [frame] in [mode], run [f x], unlatch and unpin, also when [f]
   raises.  No closure is allocated here. *)
let run_latched t frame mode f x =
  let latch = frame.latch in
  match Latch.acquire latch mode with
  | exception e ->
      unpin t frame;
      raise e
  | () -> (
      match f x with
      | v ->
          Latch.release latch mode;
          unpin t frame;
          v
      | exception e ->
          Latch.release latch mode;
          unpin t frame;
          raise e)

let with_page t pid ~mode f =
  let frame = fetch t pid in
  run_latched t frame mode f frame.page

let with_frame t pid ~mode f =
  let frame = fetch t pid in
  run_latched t frame mode f frame

let mark_dirty t f ~lsn =
  if f.dirty_ix < 0 then begin
    add_dirty t f;
    f.rec_lsn <- lsn
  end

(* The dirty frames in page-id order, by a merge sort: [Array.sort], a
   heap sort, took about 1.5x as long on 64 frames. *)
let dirty_frames t =
  let a = Array.sub t.dirty 0 t.ndirty in
  Array.stable_sort (fun a b -> Int.compare a.key b.key) a;
  a

let dirty_page_table t =
  Array.fold_right
    (fun f acc -> (Page_id.of_int f.key, f.rec_lsn) :: acc)
    (dirty_frames t) []

let flush_all t =
  if t.ndirty > 0 then begin
    let dirty = dirty_frames t in
    let ts = if Trace.on () then Trace.now () else 0.0 in
    (* One WAL barrier for the whole batch instead of one per page. *)
    let max_lsn = Array.fold_left (fun acc f -> Lsn.max acc (Page.lsn f.page)) Lsn.nil dirty in
    t.wal_flush max_lsn;
    (* Page-id order: the head of each contiguous run pays the seek, the
       rest of the run streams sequentially — the write-side mirror of the
       rewind gather's run pricing. *)
    let prev = ref (-1) in
    Array.iter
      (fun f ->
        let pid = Page_id.of_int f.key in
        (match t.source.write_seq with
        | Some wseq when !prev >= 0 && f.key = !prev + 1 -> wseq pid f.page
        | _ -> t.source.write pid f.page);
        remove_dirty t f;
        Obs.incr Probes.writebacks;
        prev := f.key)
      dirty;
    if Trace.on () then
      Trace.complete ~cat:"buf" ~ts
        ~args:[ ("pages", Trace.Int (Array.length dirty)) ]
        "buf.flush_all"
  end

let drop_all t =
  let slots = t.slots in
  for i = 0 to Array.length slots - 1 do
    if slots.(i).pin_count > 0 then failwith "Buffer_pool.drop_all: frame pinned"
  done;
  for i = 0 to Array.length slots - 1 do
    let f = slots.(i) in
    if f != empty then begin
      Page.release f.page;
      slots.(i) <- empty
    end
  done;
  t.count <- 0;
  for i = 0 to t.ndirty - 1 do
    t.dirty.(i).dirty_ix <- -1;
    t.dirty.(i) <- empty
  done;
  t.ndirty <- 0
