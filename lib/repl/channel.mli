(** The shipping link between a primary and one replica.

    A deliberately unreliable pipe: every send draws from a seeded PRNG
    (one draw per fault class per send, in a fixed order, so adjusting one
    rate never reshuffles the schedule of the others — the same discipline
    as {!Rw_storage.Fault_plan}) and may be dropped, duplicated, delayed,
    or swallowed by a network partition.  Delivery latency and transfer
    time are priced on the shared simulated clock, so replica lag is a
    real, measurable quantity on the same timeline the primary runs on. *)

type fault_rates = {
  drop : float;  (** probability a send is lost in flight *)
  duplicate : float;  (** probability a delivered send arrives twice *)
  delay : float;  (** probability a delivered send is stalled *)
  partition : float;
      (** probability a send opens a partition window: it and the next
          3 sends all fail with [Partitioned] *)
}

type outcome =
  | Delivered of int
      (** the shipment arrived; the payload is presented this many times
          (2 under a duplicate fault — ingest must be idempotent) *)
  | Dropped  (** lost in flight; the sender times out and retries *)
  | Partitioned  (** the link is partitioned; nothing gets through *)

type t

val create :
  clock:Rw_storage.Sim_clock.t ->
  ?seed:int ->
  ?rates:fault_rates ->
  unit ->
  t
(** The link has a 200 µs per-send round-trip floor and 100 MB/s of
    bandwidth; a delay fault stalls a send by 2 ms more, and a
    spontaneous partition window lasts 4 sends. *)

val send : t -> bytes:int -> outcome
(** Attempt one shipment of [bytes] encoded log bytes.  Advances the
    shared clock by the latency (plus transfer time on delivery, plus the
    stall under a delay fault; a drop or partition burns the latency as a
    timeout). *)

val partition : t -> sends:int -> unit
(** Force a partition for the next [sends] sends (extends any window in
    progress) — the harness's network-cut lever. *)

val heal : t -> unit
(** Close any partition window immediately. *)

type stats = {
  sends : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  partitioned : int;
}

val stats : t -> stats
(** (test support: the channel-fault tests check the per-class counts.) *)
