(** The process-wide worker-domain pool.

    Every fan-out site in the engine — page-grouped log-scan redo
    (restart, replica catch-up and backup roll-forward), snapshot batch
    rewind and the scrub sweep — runs through this
    one pool, so there is exactly one spawn cost, one wake/claim
    protocol and one determinism contract in the process.

    Worker domains are spawned lazily on first use and parked on a
    condition variable between runs ([Domain.spawn] costs milliseconds;
    a wake costs microseconds).  Each {!run} publishes one job closure
    for a generation; parked workers claim participant indexes
    [1 .. participants - 1] while the calling domain runs index [0].

    {b Determinism contract.}  Callers fix their work {e split}
    (a page list) independently of the fan-out; workers
    process split units round-robin by participant index, touch only
    private state (their own pages, their own result slots), and all
    shared-state effects — caches, probes, [Io_stats] — happen on the
    calling domain, either before the run (gather) or after it
    (publish).  Under that discipline any fan-out, including 1, yields
    byte-identical results; fan-out changes wall-clock only. *)

val run : participants:int -> (int -> unit) -> unit
(** [run ~participants f] executes [f 0] .. [f (participants - 1)]
    concurrently — [f 0] on the calling domain, the rest on parked
    workers — and returns once all have finished, re-raising the first
    worker exception after the barrier.  [participants <= 1] runs [f 0]
    inline without touching the pool.  Bumps [pool.tasks] by
    [participants] and [pool.wakes] by [participants - 1] (caller-side;
    the metrics registry is not domain-safe).  (test support: engine sites
    go through {!parallel_for}; the pool tests drive the primitive.) *)

val set_fanout : int option -> unit
(** Override ([Some cap], clamped to at least 1) or restore
    ([None]) the pool's fan-out cap.  The cap bounds how many domains
    run concurrently; it never changes a caller's work split, so results
    are identical under any setting.  Tests and experiments use this to
    force serial or wide execution.

    Shrinking the cap below the spawned worker count retires (joins)
    every parked worker; the pool respawns up to the new cap on next
    use.  This matters because an idle parked domain is not free — every
    minor GC is a stop-the-world rendezvous across all live domains — so
    restoring an override to [None] on a small host returns the process
    to a zero-spare-domain state instead of leaving a permanent GC tax
    behind.  Only call between runs (never from inside a {!run} job). *)

val fanout_cap : unit -> int
(** The current cap: the {!set_fanout} override if any, else
    [Domain.recommended_domain_count ()]. *)

val effective_fanout : int -> int
(** [effective_fanout work] = [max 1 (min work (fanout_cap ()))] — the
    participant count a site should pass to {!run} for [work]
    independent units.  (test support: the pool tests pin the clamp.) *)

val parallel_for : int -> (int -> unit) -> int
(** [parallel_for n f] runs [f 0] .. [f (n - 1)] over
    [effective_fanout n] participants, participant [w] taking indexes
    [w], [w + fanout], ... (round-robin), and returns that fan-out.
    [n <= 0] runs nothing.  The split is [n] — fixed by the caller — so
    results do not depend on the fan-out as long as each [f i] touches
    only index [i]'s private state. *)

val overlap_credit : fanout:int -> ('a -> float) -> 'a array -> float
(** [overlap_credit ~fanout cost items]: the modeled time saved when the
    gather's serially-charged per-item costs stream concurrently on
    [fanout] round-robin partitions — the total of the per-partition
    costs minus the slowest partition.  [0.0] (allocation-free) at
    [fanout <= 1]. *)

val spawned_workers : unit -> int
(** Worker domains spawned so far (parked between runs); introspection
    for the [\pool] meta-command. *)
