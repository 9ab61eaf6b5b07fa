(** The experiments beyond the paper's evaluation, one runner each: e8
    (§6.3 at scale), e9 (instant restart), e10 (log-shipping replication),
    e11 (what-if selective undo) and e12 (domain-parallel batched as-of
    preparation).  Each self-checks its results against a twin and exits 1
    on a failed check; [quick] shrinks the workload for smoke runs. *)

val e8 : quick:bool -> unit -> unit
val e9 : quick:bool -> unit -> unit
val e10 : quick:bool -> unit -> unit
val e11 : quick:bool -> unit -> unit
val e12 : quick:bool -> unit -> unit
