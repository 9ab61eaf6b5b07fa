module Sim_clock = Rw_storage.Sim_clock
module Prng = Rw_storage.Prng

type fault_rates = { drop : float; duplicate : float; delay : float; partition : float }

let no_faults = { drop = 0.0; duplicate = 0.0; delay = 0.0; partition = 0.0 }

type outcome = Delivered of int | Dropped | Partitioned

type t = {
  clock : Sim_clock.t;
  rng : Prng.t;
  rates : fault_rates;
  mutable partition_left : int;
  mutable sends : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable partitioned : int;
}

(* The link: a per-send round-trip floor, 100 MB/s of bandwidth, the
   extra stall under a delay fault, and the length of a spontaneous
   partition window. *)
let latency_us = 200.0
let us_per_byte = 1.0 /. (100.0 *. 1024.0 *. 1024.0 /. 1_000_000.0)
let delay_us = 2_000.0
let partition_sends = 4

let create ~clock ?(seed = 0) ?(rates = no_faults) () =
  {
    clock;
    rng = Prng.create (seed lxor 0x5eed_11);
    rates;
    partition_left = 0;
    sends = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    partitioned = 0;
  }

let partition t ~sends = t.partition_left <- max t.partition_left sends
let heal t = t.partition_left <- 0

let send t ~bytes =
  t.sends <- t.sends + 1;
  (* One draw per fault class per send, fixed order (partition, drop,
     duplicate, delay): the schedule of any one class is stable under
     changes to the others' rates. *)
  let p_part = Prng.float t.rng 1.0 in
  let p_drop = Prng.float t.rng 1.0 in
  let p_dup = Prng.float t.rng 1.0 in
  let p_delay = Prng.float t.rng 1.0 in
  if t.partition_left = 0 && p_part < t.rates.partition then
    t.partition_left <- partition_sends;
  if t.partition_left > 0 then begin
    t.partition_left <- t.partition_left - 1;
    t.partitioned <- t.partitioned + 1;
    (* The sender's timeout burns the round-trip latency. *)
    Sim_clock.advance_us t.clock latency_us;
    Partitioned
  end
  else if p_drop < t.rates.drop then begin
    t.dropped <- t.dropped + 1;
    Sim_clock.advance_us t.clock latency_us;
    Dropped
  end
  else begin
    let stall =
      if p_delay < t.rates.delay then begin
        t.delayed <- t.delayed + 1;
        delay_us
      end
      else 0.0
    in
    Sim_clock.advance_us t.clock
      (latency_us +. (float_of_int bytes *. us_per_byte) +. stall);
    t.delivered <- t.delivered + 1;
    if p_dup < t.rates.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      Delivered 2
    end
    else Delivered 1
  end

type stats = {
  sends : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  partitioned : int;
}

let stats (t : t) =
  {
    sends = t.sends;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    partitioned = t.partitioned;
  }
