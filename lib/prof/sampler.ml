let interval_s = 0.001

type t = {
  mutable stacks : Printexc.raw_backtrace list; (* newest first *)
  mutable previous : Sys.signal_behavior option;
  cpu_start : float; (* process CPU seconds, user + system *)
  mutable cpu_s : float; (* CPU seconds between start and stop *)
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let max_depth = 256
let top = 15

let start () =
  let t = { stacks = []; previous = None; cpu_start = cpu_now (); cpu_s = 0.0 } in
  (* Whichever domain reaches a safepoint first runs the handler; a sample
     taken by two domains at once may be lost, never corrupted. *)
  let handler _ = t.stacks <- Printexc.get_callstack max_depth :: t.stacks in
  t.previous <- Some (Sys.signal Sys.sigprof (Sys.Signal_handle handler));
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval_s; it_value = interval_s });
  t

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  t.cpu_s <- cpu_now () -. t.cpu_start;
  Option.iter (Sys.set_signal Sys.sigprof) t.previous;
  t.previous <- None

(* "Rw_engine__Database.find_table" -> "Database.find_table". *)
let frame_name slot =
  match Printexc.Slot.name slot with
  | None -> "?"
  | Some name -> (
      let dot = try String.index name '.' with Not_found -> String.length name in
      let modname = String.sub name 0 dot in
      let rec last_sep i =
        if i < 1 then None
        else if modname.[i] = '_' && modname.[i - 1] = '_' then Some (i + 1)
        else last_sep (i - 1)
      in
      match last_sep (String.length modname - 1) with
      | Some i -> String.sub name i (String.length name - i)
      | None -> name)

(* Each sample's frames, innermost first, without the sampler's own
   handler frame. *)
let frames t =
  List.map
    (fun raw ->
      match Printexc.backtrace_slots raw with
      | None -> []
      | Some slots -> (
          match Array.to_list (Array.map frame_name slots) with
          | handler :: rest when String.starts_with ~prefix:"Sampler." handler -> rest
          | frames -> frames))
    t.stacks

let write_folded all path =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun frames ->
      let key = String.concat ";" (List.rev frames) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    all;
  let lines = Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] in
  let oc = open_out path in
  List.iter (fun (k, n) -> Printf.fprintf oc "%s %d\n" k n) (List.sort compare lines);
  close_out oc

let report ~cpu_s all =
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun frames ->
      (match frames with f :: _ -> bump self f | [] -> ());
      List.iter (bump incl) (List.sort_uniq compare frames))
    all;
  let n = List.length all in
  let print title tbl =
    Printf.printf "top %d by %s samples:\n" top title;
    Hashtbl.fold (fun k c acc -> (c, k) :: acc) tbl []
    |> List.sort (fun (a, ka) (b, kb) -> if a <> b then compare b a else compare ka kb)
    |> List.iteri (fun i (c, k) ->
           if i < top then
             Printf.printf "  %5.1f%%  %6d  %s\n" (100.0 *. float c /. float (max n 1)) c k)
  in
  (* The kernel may deliver the timer less often than asked (on some
     hosts one signal per scheduler tick), so the period printed is the
     one measured. *)
  Printf.printf "profile: %d samples over %.3f s of process CPU time, %s (timer set to %.1f ms)\n" n
    cpu_s
    (if n = 0 then "none taken"
     else Printf.sprintf "one per %.2f ms" (1000.0 *. cpu_s /. float n))
    (1000.0 *. interval_s);
  print "self" self;
  print "inclusive" incl

let with_profile path f =
  match path with
  | None -> f ()
  | Some path ->
      let t = start () in
      Fun.protect
        ~finally:(fun () ->
          stop t;
          let all = frames t in
          write_folded all path;
          report ~cpu_s:t.cpu_s all;
          Printf.printf "folded stacks: %s\n%!" path)
        f
