type t = int

let nil = 0

let of_int i =
  if i < 0 then invalid_arg "Lsn.of_int: negative"
  else i

let to_int t = t

let of_int_array a =
  for k = 0 to Array.length a - 1 do
    if a.(k) < 0 then invalid_arg "Lsn.of_int_array: negative"
  done;
  a

let is_nil t = t = 0
let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let max (a : t) (b : t) = Stdlib.max a b
let min (a : t) (b : t) = Stdlib.min a b
let pp fmt t = Format.fprintf fmt "lsn:%d" t
