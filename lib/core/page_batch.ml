module Sim_clock = Rw_storage.Sim_clock
module Trace = Rw_obs.Trace

(* The costs were charged serially; on [fanout] round-robin partitions
   they stream concurrently and finish when the slowest does. *)
let overlap_credit ~fanout costs =
  if fanout <= 1 then 0.0
  else begin
    let per = Array.make fanout 0.0 in
    Array.iteri (fun i c -> per.(i mod fanout) <- per.(i mod fanout) +. c) costs;
    Array.fold_left ( +. ) 0.0 per -. Array.fold_left Float.max 0.0 per
  end

(* Item 0's result, computed before the fan-out, seeds the result array,
   so no slot is boxed in an option. *)
let apply_all ~fanout apply b n =
  let results = Array.make n (apply b 0) in
  Domain_pool.run ~participants:fanout (fun w ->
      let i = ref (if w = 0 then fanout else w) in
      while !i < n do
        results.(!i) <- apply b !i;
        i := !i + fanout
      done);
  results

let batch ~clock ~span ~gather ~apply ~publish entries =
  let ts = if Trace.on () then Trace.now () else 0.0 in
  let n = Array.length entries in
  let b, costs = gather entries in
  let fanout = Domain_pool.effective_fanout n in
  let results = apply_all ~fanout apply b n in
  Sim_clock.credit_us clock (overlap_credit ~fanout costs);
  for i = 0 to n - 1 do
    publish b i results.(i)
  done;
  if Trace.on () then
    Trace.complete ~cat:"pool" ~ts
      ~args:[ ("pages", Trace.Int n); ("fanout", Trace.Int fanout) ]
      span;
  fanout

let run ~clock ~span ~chunk ~gather ~apply ~publish entries =
  let n = Array.length entries in
  let chunk = max 1 chunk in
  let lo = ref 0 and participants = ref 0 in
  while !lo < n do
    let len = min chunk (n - !lo) in
    participants :=
      !participants
      + batch ~clock ~span ~gather ~apply ~publish
          (if len = n then entries else Array.sub entries !lo len);
    lo := !lo + len
  done;
  !participants
