(* A process-global pool of parked worker domains behind [Page_batch],
   the engine's one fan-out (restart redo, replica catch-up, snapshot
   batch rewind, scrub).  [Domain.spawn] costs milliseconds on a loaded
   machine — more than an entire small restart — so spawning per batch
   would make parallel work slower than sequential.  Workers are spawned
   once, on first use, and parked on a condition variable between runs
   (an idle blocked domain does not prevent process exit); a
   wake/claim/report round-trip is a few microseconds.

   Each generation publishes one job closure and [parts - 1] participant
   indexes (the calling domain runs index 0 itself); every worker claims
   at most one index per generation, so [run] ensures at least
   [parts - 1] workers exist before publishing.

   Parked domains are not free: every minor GC is a stop-the-world
   rendezvous across all live domains, so an idle parked worker taxes
   every allocation-heavy loop on the coordinator (measured 5-200x on
   single-core hosts).  The pool therefore retires (joins) its workers
   whenever [set_fanout] shrinks the cap below the spawned count —
   restoring an override to [None] on a small host returns the process
   to a zero-spare-domain state — and respawns on next use. *)

module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

let m = Mutex.create ()
let work_ready = Condition.create ()
let work_done = Condition.create ()
let job : (int -> unit) option ref = ref None
let generation = ref 0
let next_part = ref 1
let parts = ref 0
let pending = ref 0
let failure = ref None
let spawned = ref 0
let retire = ref 0
let handles : unit Domain.t list ref = ref []

let worker () =
  let seen = ref 0 in
  let live = ref true in
  Mutex.lock m;
  while !live do
    while !generation = !seen && !retire = 0 do
      Condition.wait work_ready m
    done;
    if !retire > 0 then begin
      decr retire;
      live := false
    end
    else begin
      seen := !generation;
      (* A worker that wakes after every index is claimed just waits for
         the next generation. *)
      if !next_part < !parts then begin
        let idx = !next_part in
        incr next_part;
        let f = Option.get !job in
        Mutex.unlock m;
        (try f idx
         with e ->
           Mutex.lock m;
           if !failure = None then failure := Some e;
           Mutex.unlock m);
        Mutex.lock m;
        decr pending;
        if !pending = 0 then Condition.broadcast work_done
      end
    end
  done;
  Mutex.unlock m

let ensure_workers n =
  while !spawned < n do
    handles := Domain.spawn worker :: !handles;
    incr spawned
  done

(* Retire every parked worker and join its domain.  Must only be called
   between runs (the coordinator is single-threaded through [run], so
   [set_fanout] call sites satisfy this by construction). *)
let teardown_workers () =
  if !spawned > 0 then begin
    Mutex.lock m;
    retire := !spawned;
    Condition.broadcast work_ready;
    Mutex.unlock m;
    List.iter Domain.join !handles;
    handles := [];
    spawned := 0;
    retire := 0
  end

let spawned_workers () = !spawned

let run ~participants f =
  (* Pool probes are bumped on the calling domain only — the metrics
     registry is not domain-safe, which is also why jobs must confine
     their own shared-state mutations to the caller's index. *)
  Obs.add Probes.pool_tasks (max 1 participants);
  if participants <= 1 then f 0
  else begin
    Obs.add Probes.pool_wakes (participants - 1);
    ensure_workers (participants - 1);
    Mutex.lock m;
    job := Some f;
    parts := participants;
    next_part := 1;
    pending := participants - 1;
    failure := None;
    incr generation;
    Condition.broadcast work_ready;
    Mutex.unlock m;
    let own = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait work_done m
    done;
    let fail = match own with None -> !failure | Some _ -> own in
    job := None;
    Mutex.unlock m;
    match fail with Some e -> raise e | None -> ()
  end

(* How many domains (including the caller) actually run concurrently.
   Work splits (the callers' page lists) are fixed by the
   caller — that is what determinism and the byte-equality contracts are
   stated over — but running more workers than cores is pure loss
   (domains timeslice one core and every minor GC pays a stop-the-world
   rendezvous across all of them), so the fan-out is capped at
   [Domain.recommended_domain_count], overridable for tests and
   experiments. *)
let fanout_override = ref None

let fanout_cap () =
  match !fanout_override with
  | Some c -> max 1 c
  | None -> Domain.recommended_domain_count ()

let set_fanout cap =
  fanout_override := cap;
  (* Shrinking the cap below the spawned count retires the excess —
     there is no per-worker shrink, the pool drops to zero and respawns
     up to the new cap on next use.  Parked domains tax every minor GC
     on the coordinator, so restoring [None] on a small host must leave
     no spare domains behind. *)
  if !spawned > fanout_cap () - 1 then teardown_workers ()

let effective_fanout work = max 1 (min work (fanout_cap ()))
