(** Named metrics: counters, gauges and log-scale histograms.

    The registry generalises the flat {!Rw_storage.Io_stats} counter
    struct.  An instrument is registered once — normally at module
    initialisation time in {!Probes}, so the name set is complete as soon
    as the program links — and updated from hot paths with one or two
    memory writes.  Snapshots come out of a single {!pp}/{!to_json} path
    instead of one ad-hoc printer per subsystem.

    The engine is single-threaded (everything runs on the simulated
    clock), so no synchronisation is performed. *)

type registry
(** A set of named instruments.  Every function that takes [?registry]
    defaults to the process-wide registry. *)

type counter
(** A monotonically increasing integer. *)

type gauge
(** A float that can move both ways (e.g. live snapshot count). *)

type histogram
(** A log₂-bucketed distribution with count/sum/min/max. *)

val create : unit -> registry
(** A fresh, empty registry.  (test support: the [?registry] seam keeps a
    test's instruments out of the process-wide registry, whose name set
    test_obs checks against docs/OBSERVABILITY.md.) *)

(** {1 Registration}

    Each function registers the instrument under [name] and returns the
    handle used for updates.  Raises [Invalid_argument] if [name] is
    already taken in the registry. *)

val counter : ?registry:registry -> ?unit_:string -> help:string -> string -> counter
val gauge : ?registry:registry -> ?unit_:string -> help:string -> string -> gauge
val histogram : ?registry:registry -> ?unit_:string -> help:string -> string -> histogram

(** {1 Updates (hot path)} *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit
(** [gauge_add g v] adds [v] (possibly negative) to the gauge. *)

val observe : histogram -> float -> unit
(** Record one observation; updates the bucket, count, sum, min and max. *)

(** {1 Reading back} *)

val counter_value : counter -> int
val counter_name : counter -> string
val gauge_value : gauge -> float
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float
(** (test support: {!pp} and {!to_json} read instruments directly; the
    tests read gauges and histogram aggregates through these.) *)

val hist_bucket : histogram -> int -> int
(** [hist_bucket h i] is the number of observations in bucket [i]. *)

val bucket_count : int
(** Number of histogram buckets (64). *)

val bucket_index : float -> int
(** [bucket_index v] maps an observation to its bucket: bucket 0 holds
    everything below 1 (including 0 and, defensively, negatives); bucket
    [k >= 1] holds [[2{^k-1}, 2{^k})]; the last bucket absorbs the tail.
    (test support: the tests pin the bucket edges.) *)

val bucket_lower_bound : int -> float
(** Inclusive lower bound of bucket [i] (0 for bucket 0). *)

(** {1 Snapshots} *)

val names : ?registry:registry -> unit -> string list
(** All registered metric names, sorted.  (test support: test_obs diffs
    them against docs/OBSERVABILITY.md.) *)

val reset : ?registry:registry -> unit -> unit
(** Zero every instrument (counters to 0, gauges to 0, histograms
    emptied).  (test support: the histogram test checks it empties every
    bucket.) *)

val pp : Format.formatter -> unit -> unit
(** Human-readable snapshot, one line per metric. *)

val to_json : unit -> string
(** JSON snapshot: an object keyed by metric name; histograms include the
    non-empty buckets as [[lower_bound, count]] pairs. *)
