(** Scaled-down TPC-C-like workload (paper §6).

    The paper evaluates with an internal scaled-down TPC-C kit (800
    warehouses, 40 GB).  This module reproduces the workload's {e shape} at
    laptop scale: the same schema skeleton (warehouse, district, customer,
    item, stock, orders, order_line), the NURand access skew, multi-row
    read-write transactions (new-order, payment), and the read-only
    stock-level query the paper uses as its as-of query.

    Composite TPC-C keys are packed into the engine's int64 keys; the
    packing functions are exposed for the experiment harnesses. *)

type config = {
  warehouses : int;
  districts : int;  (** per warehouse *)
  customers : int;  (** per district *)
  items : int;
  initial_orders : int;  (** orders pre-loaded per district, as in TPC-C *)
  seed : int;
}

val default_config : config
(** 4 warehouses, 10 districts, 30 customers/district, 500 items,
    15 initial orders per district. *)

val small_config : config
(** Tiny setup for unit tests. *)

(* Key packing *)

val load : Rw_engine.Database.t -> config -> unit
(** Create the schema and load the initial population. *)

type t
(** A workload driver bound to one database. *)

val create : Rw_engine.Database.t -> config -> t

(* Individual transactions; each runs in its own engine transaction. *)
val new_order : t -> unit
val payment : t -> unit
val order_status : t -> unit
(** (test support: the engine runs them through {!run_mix}; the workload
    tests check each one's effect.) *)

val stock_level : Rw_engine.Database.t -> config -> w:int -> d:int -> threshold:int -> int
(** The stock-level query: examine the order lines of the district's last
    20 orders and count items whose stock is below the threshold.  Works
    against the primary or any read-only view (as-of snapshot, restored
    backup) — this is the paper's as-of query.  Raises [Invalid_argument]
    on an order line whose item id lies outside [1 .. config.items]. *)

type mix_stats = {
  mutable new_orders : int;
  mutable payments : int;
  mutable order_statuses : int;
  mutable stock_levels : int;
}

val run_mix : t -> txns:int -> mix_stats
(** Run [txns] transactions with a TPC-C-flavoured mix (45% new-order,
    43% payment, 8% stock-level, 4% order-status). *)

val tpmc : mix_stats -> elapsed_us:float -> float
(** New-order transactions per simulated minute. *)

val consistency_check : Rw_engine.Database.t -> config -> (unit, string) result
(** Cross-table invariants: every order's lines exist, district next_o_id
    covers all orders, stock rows exist for every item/warehouse. *)
