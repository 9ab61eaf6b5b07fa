(** The paper's evaluation (§6), one runner per figure or section, each
    printing the series the paper plots, plus the design ablations, the
    per-query EXPLAIN cost table and the segmented log's memory bound.

    Absolute numbers differ (the substrate is a simulator at MB scale, not
    a 40 GB testbed), but the shapes the paper argues from hold: FPI
    logging costs log space but little throughput (Figs. 5-6), as-of
    queries beat full restore by orders of magnitude and degrade linearly
    with time travelled (Figs. 7-10), undo I/Os grow linearly (Fig. 11),
    concurrent as-of queries reduce but do not cripple throughput (§6.3),
    and a crossover exists when enough data is accessed (§6.4).  [quick]
    shrinks each workload for smoke runs. *)

val fig5 : quick:bool -> unit -> unit
val fig6 : quick:bool -> unit -> unit
val fig7 : quick:bool -> unit -> unit
val fig8 : quick:bool -> unit -> unit
val fig9 : quick:bool -> unit -> unit
val fig10 : quick:bool -> unit -> unit
val fig11 : quick:bool -> unit -> unit
val sec6_3 : quick:bool -> unit -> unit
val sec6_4 : quick:bool -> unit -> unit
val ablation : quick:bool -> unit -> unit
val explain : quick:bool -> unit -> unit
val segments : quick:bool -> unit -> unit
