type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* SplitMix64: fast, high-quality 64-bit mixing; good enough for workload
   generation and far more reproducible than Stdlib.Random across versions. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Mask to keep the value in OCaml's non-negative int range. *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let non_uniform t ~a ~x ~y =
  let c = a / 2 in
  (((int_in t 0 a lor int_in t x y) + c) mod (y - x + 1)) + x

let alpha_string t n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + int t 26))
