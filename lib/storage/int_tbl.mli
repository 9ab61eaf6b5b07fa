(** Hash tables keyed by ints: page ids, transaction ids and log block
    numbers on the log-append and commit path.  Lookups compare and hash
    the key inline, with none of the generic [Hashtbl]'s polymorphic
    hashing and comparison.  Iteration order differs from the generic
    table's, so every [iter] or [fold] over one feeds an order-insensitive
    or sorted result. *)

include Hashtbl.S with type key = int
