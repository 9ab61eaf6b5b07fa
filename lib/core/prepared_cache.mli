(** Shared prepared-page cache (the E8 amortization).

    Caches {e pure} chain-rewind page images keyed by (page, SplitLSN) so
    that concurrent as-of snapshots at the same or nearby SplitLSNs share
    rewind work instead of each re-walking the whole chain
    (Lomet's observation that time-travel reads must amortize their redo
    work across consumers to be competitive).

    Reuse rules, in order of preference for a lookup at [split]:
    - an entry at exactly [split] — byte-identical, returned as {!Exact};
    - an entry at an {e older} as_of with provably no chain records in
      between (checked against the in-memory chain index, and only when
      the index still covers the range) — also {!Exact};
    - the closest entry at a {e newer} as_of — returned as {!Newer}; the
      caller delta-rewinds it down to [split], paying only for the chain
      records in (split, newer] instead of the full chain.

    Entries are stamped with {!Rw_wal.Log_manager.invalidation_epoch} at
    fill time and lazily discarded when the log's epoch moves on
    (retention truncation, crash).  Appends never invalidate: rewound
    history is immutable. *)

type t

val create : log:Rw_wal.Log_manager.t -> t
(** The cache holds at most 512 entries; least-recently-used entries are
    evicted beyond it. *)

type outcome =
  | Exact of Rw_storage.Page.t  (** image at exactly [split]; use as is *)
  | Newer of Rw_storage.Page.t
      (** image at a later as_of; delta-rewind it down to [split] *)
  | Miss

val find : t -> Rw_storage.Page_id.t -> split:Rw_storage.Lsn.t -> outcome
(** Look up a rewound image for the page at SplitLSN [split].  Returned
    pages are private copies — callers may mutate them freely.  Counts
    shared hits/misses (the [snapshot.shared_*] probes). *)

val find_exact :
  t -> Rw_storage.Page_id.t -> split:Rw_storage.Lsn.t -> Rw_storage.Page.t option
(** Exact-image peek for the snapshot pool's re-fetch path: [Some] only
    when a byte-identical image is available; never counts a miss. *)

val add : t -> Rw_storage.Page_id.t -> as_of:Rw_storage.Lsn.t -> Rw_storage.Page.t -> unit
(** Publish a freshly rewound {e pure} image (no snapshot-local mutations
    such as loser undo applied).  The page is copied in; duplicates of an
    existing (page, as_of) key are ignored.  The copy is a recycled page
    buffer ({!Rw_storage.Page.copy}); an entry gives it back with
    {!Rw_storage.Page.release} when it is evicted or pruned. *)

(* Introspection for the CLI's \sessions display. *)
val entries : t -> int
val hits : t -> int
val delta_hits : t -> int
val misses : t -> int
val invalidations : t -> int

val hit_rate : t -> float
(** (exact + delta hits) / lookups, 0 when no lookups yet. *)

val contents : t -> (Rw_storage.Page_id.t * Rw_storage.Lsn.t * string) list
(** Every live entry as [(page, as_of, image bytes)], sorted — a
    deterministic dump for the fan-out determinism tests (two runs that
    behaved identically produce equal lists).  Stale-epoch entries are
    pruned before listing.  (test support) *)
