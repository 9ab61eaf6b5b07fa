(** The experiment table: every runner of the paper's evaluation (§6), of
    the experiments beyond it, of the ablations and of the fault campaign,
    under the name [bench/main.exe] takes. *)

val all : (string * (quick:bool -> unit -> unit)) list
(** In run order, each entry's comment its one-line description; names
    are unique.  A runner prints its table to stdout; [quick] shrinks its
    workload for smoke runs. *)

val run_all : ?quick:bool -> unit -> unit
(** Every runner of {!all}, in order. *)
