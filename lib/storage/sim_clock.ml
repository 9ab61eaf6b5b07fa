type t = { mutable now_us : float }

let create () = { now_us = 0.0 }
let now_us t = t.now_us
let now_s t = t.now_us /. 1_000_000.0

let advance_us t d =
  if d < 0.0 then invalid_arg "Sim_clock.advance_us: negative";
  t.now_us <- t.now_us +. d

let credit_us t d =
  if d < 0.0 then invalid_arg "Sim_clock.credit_us: negative";
  t.now_us <- t.now_us -. d
