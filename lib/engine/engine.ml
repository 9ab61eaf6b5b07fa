module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock

exception Database_exists of string
exception No_such_database of string

type t = {
  clock : Sim_clock.t;
  media : Media.t;
  log_media : Media.t;
  dbs : (string, Database.t) Hashtbl.t;
}

let create ?(media = Media.ssd) ?log_media () =
  let clock = Sim_clock.create () in
  (* Trace spans are timestamped on this engine's simulated clock, so the
     exported timeline lines up with the priced I/O.  (A process with
     several engines traces on whichever was created last.) *)
  Rw_obs.Trace.install_clock (fun () -> Sim_clock.now_us clock);
  {
    clock;
    media;
    log_media = Option.value log_media ~default:media;
    dbs = Hashtbl.create 8;
  }

let clock t = t.clock
let now_us t = Sim_clock.now_us t.clock
let now_s t = Sim_clock.now_s t.clock

let register t name db =
  if Hashtbl.mem t.dbs name then raise (Database_exists name);
  Hashtbl.replace t.dbs name db;
  db

let create_database t ?fpi ?pool_capacity ?checkpoint_interval_us ?log_cache_blocks ?log_block_bytes ?log_segment_bytes name =
  if Hashtbl.mem t.dbs name then raise (Database_exists name);
  let db =
    Database.create ~name ~clock:t.clock ~media:t.media ~log_media:t.log_media ?fpi
      ?pool_capacity ?checkpoint_interval_us ?log_cache_blocks ?log_block_bytes ?log_segment_bytes ()
  in
  register t name db

let attach_database t db = register t (Database.name db) db
let find_database t name = Hashtbl.find_opt t.dbs name

let find_database_exn t name =
  match find_database t name with Some db -> db | None -> raise (No_such_database name)

let database_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.dbs [] |> List.sort compare

let create_snapshot t ~of_ ~name ~wall_us =
  let db = find_database_exn t of_ in
  if Hashtbl.mem t.dbs name then raise (Database_exists name);
  let snap = Database.create_as_of_snapshot db ~name ~wall_us in
  register t name snap

let drop_database t name =
  let db = find_database_exn t name in
  (match Database.snapshot_handle db with
  | Some snap -> Rw_core.As_of_snapshot.drop snap
  | None -> ());
  Hashtbl.remove t.dbs name
