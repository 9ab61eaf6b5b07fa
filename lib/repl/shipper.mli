(** The primary-side shipping loop for one attached replica.

    Each {!step} exports the next segment-granular unit from the primary's
    log ({!Rw_wal.Log_manager.export_from}), pushes it through the
    {!Channel}, and applies it on the replica — retrying dropped or
    partitioned sends with exponential backoff (priced on the shared
    clock) up to a bound, after which the shipper declares itself
    [Disconnected] and re-probes on the next step.

    Attaching a shipper registers a retention floor on the primary
    ({!Rw_engine.Database.add_retention_floor}) at the replica's resume
    point, so aggressive retention can never drop a sealed segment the
    replica has not received; {!detach} releases it. *)

type state =
  | Caught_up  (** every durable record has been shipped and applied *)
  | Lagging  (** durable records remain to ship *)
  | Disconnected  (** the retry budget was exhausted; will re-probe *)

type t

val attach :
  primary:Rw_engine.Database.t ->
  replica:Replica.t ->
  channel:Channel.t ->
  ?max_retries:int ->
  unit ->
  t
(** [max_retries] (default 5) bounds send attempts per unit; the retry
    backoff starts at 1 ms and doubles per attempt. *)

val step : t -> bool
(** Ship at most one unit.  Returns [true] if a shipment was applied
    (call again — more may be pending); [false] when caught up or
    disconnected.  Raises {!Rw_wal.Log_manager.Log_truncated} if retention
    on an unprotected primary already dropped the resume point (the
    replica must be re-seeded). *)

val catch_up : t -> unit
(** Pump {!step} until caught up or disconnected. *)

val state : t -> state
val lag_segments : t -> int
(** Live primary segments not yet fully applied by the replica (0 =
    caught up); also published on the [repl.lag_segments] gauge. *)

val shipped_segments : t -> int
val shipped_bytes : t -> int
val retries : t -> int

val detach : t -> unit
(** Unregister the replica's retention floor on the primary.  The shipper
    must not be stepped afterwards. *)
