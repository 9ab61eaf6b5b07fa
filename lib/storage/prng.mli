(** Deterministic pseudo-random number generator (SplitMix64).

    All workload generation uses this PRNG so experiments are exactly
    reproducible across runs and machines. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises on [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val non_uniform : t -> a:int -> x:int -> y:int -> int
(** TPC-C NURand non-uniform random distribution over [\[x, y\]]. *)

val alpha_string : t -> int -> string
(** Random lowercase alphabetic string of the given length. *)
