(* The key is its own hash: every table keyed this way holds dense ids
   (page ids, transaction ids, log block numbers), which identity spreads
   evenly over a power-of-two bucket array. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)
