type t = int

let nil = -1

let of_int i =
  if i < 0 then invalid_arg "Page_id.of_int: negative"
  else i

let to_int t = t

let of_int64 i =
  let i = Int64.to_int i in
  if i = -1 then nil else of_int i

let to_int64 t = Int64.of_int t
let is_nil t = t = -1
let equal = Int.equal
let compare = Int.compare
let next t = t + 1
