type t = int

let nil = 0

let of_int i =
  if i < 0 then invalid_arg "Txn_id.of_int: negative"
  else i

let to_int t = t
let of_int64 i = of_int (Int64.to_int i)
let to_int64 t = Int64.of_int t
let is_nil t = t = 0
let equal = Int.equal
let compare = Int.compare
let next t = t + 1
