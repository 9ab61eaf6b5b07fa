type t = int

let nil = -1

let of_int i =
  if i < -1 then invalid_arg "Page_id.of_int: negative"
  else i

let to_int t = t
let is_nil t = t = -1
let equal = Int.equal
let compare = Int.compare
let next t = t + 1
