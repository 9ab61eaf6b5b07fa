module Sim_clock = Rw_storage.Sim_clock
module Log_manager = Rw_wal.Log_manager
module Database = Rw_engine.Database
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

type state = Caught_up | Lagging | Disconnected

type t = {
  primary : Database.t;
  replica : Replica.t;
  channel : Channel.t;
  max_retries : int;
  floor_name : string;
  mutable state : state;
  mutable shipped_segments : int;
  mutable shipped_bytes : int;
  mutable retries : int;
}

let publish_lag t =
  let lag =
    Log_manager.segments_behind (Database.log t.primary) ~from:(Replica.next_lsn t.replica)
  in
  Obs.set Probes.repl_lag_segments (float_of_int lag);
  lag

(* The initial retry backoff, doubling per attempt. *)
let backoff_us = 1_000.0

let attach ~primary ~replica ~channel ?(max_retries = 5) () =
  let floor_name = "repl:" ^ Replica.name replica in
  (* The ship-horizon floor: retention on the primary never truncates at
     or above the replica's resume point, so a lagging replica can always
     catch up from its own log position. *)
  Database.add_retention_floor primary ~name:floor_name (fun () ->
      Some (Replica.next_lsn replica));
  let t =
    {
      primary;
      replica;
      channel;
      max_retries;
      floor_name;
      state = Caught_up;
      shipped_segments = 0;
      shipped_bytes = 0;
      retries = 0;
    }
  in
  t.state <- (if publish_lag t = 0 then Caught_up else Lagging);
  t

let export_bytes (ex : Log_manager.export) =
  List.fold_left (fun acc (_, d) -> acc + String.length d) 0 ex.Log_manager.ex_entries

let step t =
  match Log_manager.export_from (Database.log t.primary) ~from:(Replica.next_lsn t.replica) with
  | None ->
      t.state <- Caught_up;
      ignore (publish_lag t);
      false
  | Some ex ->
      t.state <- Lagging;
      let bytes = export_bytes ex in
      let rec attempt n backoff =
        match Channel.send t.channel ~bytes with
        | Channel.Delivered copies ->
            (* A duplicated delivery applies the same unit twice; ingest
               and redo are idempotent, so the second copy is a no-op —
               exercised deliberately under the duplicate fault. *)
            for _ = 1 to copies do
              ignore (Replica.ingest t.replica ex)
            done;
            t.shipped_segments <- t.shipped_segments + 1;
            t.shipped_bytes <- t.shipped_bytes + bytes;
            Obs.incr Probes.repl_segments_shipped;
            Obs.add Probes.repl_bytes_shipped bytes;
            t.state <- (if publish_lag t = 0 then Caught_up else Lagging);
            true
        | Channel.Dropped | Channel.Partitioned ->
            t.retries <- t.retries + 1;
            Obs.incr Probes.repl_retries;
            if n + 1 > t.max_retries then begin
              t.state <- Disconnected;
              ignore (publish_lag t);
              false
            end
            else begin
              (* Exponential backoff before the resend, priced on the
                 shared clock — the primary keeps running meanwhile. *)
              Sim_clock.advance_us (Database.clock t.primary) backoff;
              attempt (n + 1) (backoff *. 2.0)
            end
      in
      attempt 0 backoff_us

let catch_up t =
  while step t do
    ()
  done

let state t = t.state
let lag_segments t = publish_lag t
let shipped_segments t = t.shipped_segments
let shipped_bytes t = t.shipped_bytes
let retries t = t.retries
let detach t = Database.remove_retention_floor t.primary ~name:t.floor_name
