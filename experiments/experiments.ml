let all =
  [
    (* log space overhead vs FPI frequency N *)
    ("fig5", Figures.fig5);
    (* throughput impact vs FPI frequency N *)
    ("fig6", Figures.fig6);
    (* restore vs as-of query, SSD *)
    ("fig7", Figures.fig7);
    (* restore vs as-of query, SAS *)
    ("fig8", Figures.fig8);
    (* snapshot creation vs query time, SSD *)
    ("fig9", Figures.fig9);
    (* snapshot creation vs query time, SAS *)
    ("fig10", Figures.fig10);
    (* estimated undo log I/Os vs time back *)
    ("fig11", Figures.fig11);
    (* throughput with a concurrent as-of query loop *)
    ("sec6_3", Figures.sec6_3);
    (* crossover: log rewind vs backup roll-forward *)
    ("sec6_4", Figures.sec6_4);
    (* writer tpmC vs 0/1/4/16 concurrent as-of readers on the shared cache *)
    ("e8", Extensions.e8);
    (* instant restart: time to first query vs log length, against full replay *)
    ("e9", Extensions.e9);
    (* log-shipping replica under load, then the replication fault campaign *)
    ("e10", Extensions.e10);
    (* what-if: selective replay vs full-database rewind as history grows *)
    ("e11", Extensions.e11);
    (* batched as-of preparation swept over fan-out 1/2/4/8 *)
    ("e12", Extensions.e12);
    (* FPI frequency, log cache size, page- vs transaction-oriented undo, COW snapshots *)
    ("ablation", Figures.ablation);
    (* crash-point repair campaign under injected faults *)
    ("faults", Soaks.faults);
    (* per-query rewind cost vs time back *)
    ("explain", Figures.explain);
    (* resident log memory plateaus while appended bytes grow *)
    ("segments", Figures.segments);
  ]

let run_all ?(quick = false) () = List.iter (fun (_, run) -> run ~quick ()) all
