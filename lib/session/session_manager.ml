module Database = Rw_engine.Database
module As_of_snapshot = Rw_core.As_of_snapshot
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

(* Multi-session scheduler (the paper's §6.3 setting, "millions of users"):
   many OLTP writer sessions and a fleet of concurrent point-in-time reader
   sessions share one engine.  Everything in this codebase is a
   single-threaded deterministic simulation, so "concurrent" means
   round-robin interleaving on the simulated clock: each [run] round gives
   every live session one step, and a session's cost is whatever simulated
   time its step consumed.  That is exactly the contention model the paper
   measures — readers steal engine time (and rewind work) from writers —
   while keeping runs reproducible.

   The manager is workload-agnostic: a session is a step closure over its
   own database view.  Writers step against the primary; each reader holds
   its own as-of snapshot view (its own SplitLSN, its own sparse side file)
   opened through the database's shared prepared-page cache, which is what
   lets a fleet of readers at nearby SplitLSNs amortise chain rewinds
   instead of multiplying them. *)

type session = {
  s_view : Database.t; (* primary for writers, snapshot view for readers *)
  s_step : Database.t -> unit;
  mutable s_open : bool;
}

type t = {
  db : Database.t;
  mutable sessions : session list; (* in open order *)
  mutable service : (unit -> unit) option;
      (* background duty run once per round, after every session stepped —
         e.g. a log shipper pumping an attached replica *)
}

let create db =
  if Database.is_read_only db then invalid_arg "Session_manager.create: read-only database";
  { db; sessions = []; service = None }

let set_service t f = t.service <- f

let register t s =
  t.sessions <- t.sessions @ [ s ];
  Obs.gauge_add Probes.sessions_live 1.0;
  s

let open_writer t ~name:_ ~step = register t { s_view = t.db; s_step = step; s_open = true }

let open_reader t ~name ~wall_us ~step =
  let view = Database.create_as_of_snapshot t.db ~name ~wall_us in
  register t { s_view = view; s_step = step; s_open = true }

let close t s =
  if s.s_open then begin
    s.s_open <- false;
    t.sessions <- List.filter (fun x -> x != s) t.sessions;
    Obs.gauge_add Probes.sessions_live (-1.0);
    match Database.snapshot_handle s.s_view with
    | Some snap -> As_of_snapshot.drop snap
    | None -> ()
  end

let live_count t = List.length t.sessions
let view s = s.s_view

let step s = s.s_step s.s_view

(* Pages the background sweeper retires between scheduler rounds after an
   instant restart: small, so recovery work interleaves with foreground
   traffic instead of stalling it. *)
let sweep_pages_per_round = 4

let run t ~rounds =
  for _ = 1 to rounds do
    (* Bind the round's roster up front: a step may open or close
       sessions; newcomers join in the next round, departures are
       skipped for the rest of this one. *)
    let roster = t.sessions in
    List.iter (fun s -> if s.s_open then step s) roster;
    (* Background sweeper: after an instant restart, each round retires a
       little of the recovery backlog so the engine reaches full
       consistency even on pages no session ever touches. *)
    if Database.recovery_backlog t.db > 0 then
      ignore (Database.recovery_drain_step ~max_pages:sweep_pages_per_round t.db);
    (* Background service (e.g. a replication shipper): one pump per
       round, so replica lag tracks foreground traffic deterministically. *)
    match t.service with Some f -> f () | None -> ()
  done
