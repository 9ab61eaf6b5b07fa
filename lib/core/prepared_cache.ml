module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

(* Shared prepared-page cache: pure chain-rewind page images keyed by
   (page, SplitLSN), shared between every snapshot of one database.

   Entries must stay *pure* rewind results — the image a page has after
   [Page_undo.prepare_page_as_of ~as_of] and nothing else.  In particular
   the logical loser-undo a snapshot applies while being created mutates
   its side-file copies afterwards; those mutated pages never enter this
   cache (the snapshot layer adds copies taken immediately after the
   rewind).  Purity is what makes entries shareable: rewinding is a
   deterministic function of (page history, as_of), so two snapshots at
   the same SplitLSN want byte-identical images, and a snapshot at an
   older SplitLSN can delta-extend a newer image by rewinding only the
   chain records in between (rewind composes: current -> s' -> s equals
   current -> s).

   Invalidation is epoch-based and lazy.  Ordinary appends never
   invalidate anything — history below a cached image's as_of is
   immutable.  Only two events void entries: retention truncation (the
   history a delta-extension might need is gone, and equality probes
   against a clamped chain index would lie) and crash (tail LSNs get
   recycled).  Both bump [Log_manager.invalidation_epoch]; lookups compare
   the entry's fill-time epoch and discard stale entries on sight. *)

type entry = {
  e_image : Page.t;
      (* the entry's own page buffer: copied in, copied out, never handed
         out, and given back to [Page.release] when the entry is dropped *)
  e_as_of : Lsn.t;
  e_epoch : int;
  mutable e_tick : int; (* recency for eviction *)
}

type t = {
  log : Log_manager.t;
  table : (int, entry list ref) Hashtbl.t; (* page id -> entries, few per page *)
  mutable count : int;
  mutable tick : int;
  mutable hits : int; (* exact-image reuses *)
  mutable delta_hits : int; (* newer image delta-extended *)
  mutable misses : int;
  mutable invalidations : int; (* entries discarded on epoch mismatch *)
}

(* Entry bound; least-recently-used entries are evicted beyond it. *)
let capacity = 512

let create ~log =
  {
    log;
    table = Hashtbl.create 64;
    count = 0;
    tick = 0;
    hits = 0;
    delta_hits = 0;
    misses = 0;
    invalidations = 0;
  }

let entries t = t.count
let hits t = t.hits
let delta_hits t = t.delta_hits
let misses t = t.misses
let invalidations t = t.invalidations

let hit_rate t =
  let total = t.hits + t.delta_hits + t.misses in
  if total = 0 then 0.0 else float_of_int (t.hits + t.delta_hits) /. float_of_int total

let page_of_entry e = Page.copy e.e_image

(* Drop entries from older epochs for one page's list. *)
let prune t cell =
  let epoch = Log_manager.invalidation_epoch t.log in
  let keep, dead = List.partition (fun e -> e.e_epoch = epoch) !cell in
  if dead <> [] then begin
    List.iter (fun e -> Page.release e.e_image) dead;
    t.count <- t.count - List.length dead;
    t.invalidations <- t.invalidations + List.length dead;
    cell := keep
  end

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* An entry at an *older* as_of serves a lookup at [split] exactly when
   the page provably has no chain records in (e_as_of, split] — then the
   two rewound images are the same bytes.  The probe is only trustworthy
   when the chain index still covers the range: chain_segment clamps at
   the retention boundary, so an e_as_of below first_lsn could return an
   empty segment for history that merely fell out of retention. *)
let equivalent t pid e ~split =
  Lsn.(e.e_as_of >= Log_manager.first_lsn t.log)
  && Log_manager.located_lsns (Log_manager.chain_segment t.log pid ~from:split ~down_to:e.e_as_of)
     = [||]

type outcome = Exact of Page.t | Newer of Page.t | Miss

let find_in t pid ~split cell =
  prune t cell;
  let exact = List.find_opt (fun e -> Lsn.equal e.e_as_of split) !cell in
  match exact with
  | Some e ->
      e.e_tick <- next_tick t;
      Some (`Exact e)
  | None -> (
      (* Older image whose bytes are provably identical at [split]. *)
      match List.find_opt (fun e -> Lsn.(e.e_as_of < split) && equivalent t pid e ~split) !cell with
      | Some e ->
          e.e_tick <- next_tick t;
          Some (`Exact e)
      | None ->
          (* Closest newer image: delta-rewind (split, e_as_of] only. *)
          List.fold_left
            (fun best e ->
              if Lsn.(e.e_as_of > split) then
                match best with
                | Some (`Newer b) when Lsn.(b.e_as_of <= e.e_as_of) -> best
                | _ -> Some (`Newer e)
              else best)
            None !cell)

let find t pid ~split =
  match Hashtbl.find_opt t.table (Page_id.to_int pid) with
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr Probes.snapshot_shared_misses;
      Miss
  | Some cell -> (
      match find_in t pid ~split cell with
      | Some (`Exact e) ->
          t.hits <- t.hits + 1;
          Obs.incr Probes.snapshot_shared_hits;
          Exact (page_of_entry e)
      | Some (`Newer e) ->
          t.delta_hits <- t.delta_hits + 1;
          Obs.incr Probes.snapshot_shared_hits;
          Newer (page_of_entry e)
      | None ->
          t.misses <- t.misses + 1;
          Obs.incr Probes.snapshot_shared_misses;
          Miss)

(* Zero-cost peek used by the snapshot buffer pool's re-fetch path: an
   exact image (same split, or provably identical older image) or
   nothing.  Deliberately silent — it neither counts a miss nor disturbs
   the probes when the pool simply falls through to the priced read. *)
let find_exact t pid ~split =
  match Hashtbl.find_opt t.table (Page_id.to_int pid) with
  | None -> None
  | Some cell -> (
      match find_in t pid ~split cell with
      | Some (`Exact e) ->
          t.hits <- t.hits + 1;
          Obs.incr Probes.snapshot_shared_hits;
          Some (page_of_entry e)
      | _ -> None)

(* Deterministic dump for the fan-out determinism tests: every live
   entry as (page, as_of, image), sorted.  Stale-epoch entries are
   pruned first, so two caches with identical histories compare equal
   regardless of when lookups last happened to prune them. *)
let contents t =
  let rows = ref [] in
  Hashtbl.iter
    (fun pid cell ->
      prune t cell;
      List.iter
        (fun e -> rows := (Page_id.of_int pid, e.e_as_of, Bytes.to_string e.e_image) :: !rows)
        !cell)
    t.table;
  List.sort compare !rows

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun pid cell ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, v) when v.e_tick <= e.e_tick -> ()
          | _ -> victim := Some (pid, e))
        !cell)
    t.table;
  match !victim with
  | None -> ()
  | Some (pid, v) ->
      let cell = Hashtbl.find t.table pid in
      cell := List.filter (fun e -> e != v) !cell;
      Page.release v.e_image;
      if !cell = [] then Hashtbl.remove t.table pid;
      t.count <- t.count - 1

let add t pid ~as_of page =
  let epoch = Log_manager.invalidation_epoch t.log in
  let key = Page_id.to_int pid in
  let cell =
    match Hashtbl.find_opt t.table key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.table key c;
        c
  in
  prune t cell;
  if not (List.exists (fun e -> Lsn.equal e.e_as_of as_of) !cell) then begin
    let e =
      { e_image = Page.copy page; e_as_of = as_of; e_epoch = epoch; e_tick = next_tick t }
    in
    cell := e :: !cell;
    t.count <- t.count + 1;
    if t.count > capacity then evict_oldest t
  end
