(** Simulated wall clock.

    All experiment timing flows through this clock: the media model advances
    it for every I/O, and workloads advance it for CPU costs.  Using a
    simulated clock keeps every experiment deterministic while preserving the
    cost structure of the hardware the paper ran on. *)

type t

val create : unit -> t
val now_us : t -> float
val now_s : t -> float
val advance_us : t -> float -> unit
(** Raises [Invalid_argument] on negative advances: simulated time is
    monotonic. *)

val credit_us : t -> float -> unit
(** Model overlapped execution: give back [d] microseconds of time that
    {!advance_us} just charged serially.  The media model prices each
    stream one operation at a time; a coordinator that issues [k]
    independent streams back-to-back charges their sum, then credits
    [sum - max(stream totals)] so the batch's elapsed time is the
    slowest stream — what concurrent hardware would deliver.  The caller
    must guarantee the credited span was charged within the same batch
    and that nothing observed the intermediate timestamps (clock time
    inside the batch is not monotonic across the credit).  Raises
    [Invalid_argument] on negative credits. *)
