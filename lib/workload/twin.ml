module Database = Rw_engine.Database
module Disk = Rw_storage.Disk
module Page_id = Rw_storage.Page_id
module Sim_clock = Rw_storage.Sim_clock
module As_of_snapshot = Rw_core.As_of_snapshot

let run_history db n step =
  let clock = Database.clock db in
  Array.init n (fun i ->
      Sim_clock.advance_us clock 1000.0;
      step i;
      Sim_clock.now_us clock)

let dump db =
  List.map
    (fun (t : Rw_catalog.Schema.table) ->
      let rows = ref [] in
      Database.scan db ~table:t.name ~f:(fun row -> rows := row :: !rows);
      (t.name, List.rev !rows))
    (Database.tables db)

let snapshot_name =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "twin_%d" !n

(* An unshared snapshot of [db] at [wall_us], dropped after [f] sees it. *)
let with_snapshot db wall_us f =
  let view = Database.create_as_of_snapshot ~shared:false db ~name:(snapshot_name ()) ~wall_us in
  let snap = Option.get (Database.snapshot_handle view) in
  Fun.protect ~finally:(fun () -> As_of_snapshot.drop snap) (fun () -> f view snap)

(* Bytes 0..7 of the canonical image are the page LSN. *)
let lsn_masked s = String.sub s 8 (String.length s - 8)

let now db = (db, Database.now_us db)

let page_diff ~mask_lsn (a, wall_a) (b, wall_b) =
  with_snapshot a wall_a (fun _ sa ->
      with_snapshot b wall_b (fun _ sb ->
          let disk_a = Database.disk a and disk_b = Database.disk b in
          let image snap pid =
            let s = As_of_snapshot.page_string snap pid in
            if mask_lsn then lsn_masked s else s
          in
          let compared = ref 0 and differing = ref 0 in
          for i = 0 to max (Disk.page_count disk_a) (Disk.page_count disk_b) - 1 do
            let pid = Page_id.of_int i in
            if Disk.has_page disk_a pid || Disk.has_page disk_b pid then begin
              incr compared;
              if not (String.equal (image sa pid) (image sb pid)) then incr differing
            end
          done;
          (!compared, !differing)))

let asof_agrees ?probe (a, wall_a) (b, wall_b) =
  with_snapshot a wall_a (fun va _ ->
      with_snapshot b wall_b (fun vb _ ->
          dump va = dump vb
          && match probe with None -> true | Some p -> p va = p vb))

type row = {
  seed : int;
  label : string;
  counts : (string * int) list;
  checks : (string * bool) list;
}

let ok r = List.for_all snd r.checks
let count r name = List.assoc name r.counts
let check r name = List.assoc name r.checks

let report ~what rows =
  let col name = max 6 (String.length name) in
  (match rows with
  | [] -> ()
  | r0 :: _ ->
      Printf.printf "%6s %-12s" "seed" "label";
      List.iter
        (fun n -> Printf.printf " %*s" (col n) n)
        (List.map fst r0.counts @ List.map fst r0.checks);
      Printf.printf " %4s\n" "ok");
  List.iter
    (fun r ->
      Printf.printf "%6d %-12s" r.seed r.label;
      List.iter (fun (n, v) -> Printf.printf " %*d" (col n) v) r.counts;
      List.iter (fun (n, v) -> Printf.printf " %*s" (col n) (if v then "yes" else "NO")) r.checks;
      Printf.printf " %4s\n" (if ok r then "ok" else "FAIL"))
    rows;
  let passed = List.length (List.filter ok rows) in
  Printf.printf "%d/%d %s passed\n%!" passed (List.length rows) what;
  passed = List.length rows

type self_check = { sc_name : string; mutable failures : int }

let self_check sc_name = { sc_name; failures = 0 }

let expect sc name holds =
  if not holds then begin
    sc.failures <- sc.failures + 1;
    Printf.printf "FAIL %s\n" name
  end

let passed sc = sc.failures = 0

let finish sc =
  Printf.printf "%s self-checks: %s\n%!" sc.sc_name (if passed sc then "PASS" else "FAIL");
  if not (passed sc) then exit 1
