(* Observability tests: histogram bucketing, trace ring-buffer
   wraparound, Chrome trace JSON well-formedness, EXPLAIN reconciliation
   against Io_stats deltas, and the docs/OBSERVABILITY.md metric table
   staying in sync with the registry. *)

module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Io_stats = Rw_storage.Io_stats
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Executor = Rw_sql.Executor
module As_of_snapshot = Rw_core.As_of_snapshot
module Metrics = Rw_obs.Metrics
module Trace = Rw_obs.Trace
module Probes = Rw_obs.Probes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- histogram bucketing --- *)

let test_histogram_buckets () =
  check_int "zero -> bucket 0" 0 (Metrics.bucket_index 0.0);
  check_int "negative -> bucket 0" 0 (Metrics.bucket_index (-3.0));
  check_int "0.99 -> bucket 0" 0 (Metrics.bucket_index 0.99);
  check_int "1.0 -> bucket 1" 1 (Metrics.bucket_index 1.0);
  check_int "1.99 -> bucket 1" 1 (Metrics.bucket_index 1.99);
  check_int "2.0 -> bucket 2" 2 (Metrics.bucket_index 2.0);
  check_int "4.0 -> bucket 3" 3 (Metrics.bucket_index 4.0);
  check_int "7.99 -> bucket 3" 3 (Metrics.bucket_index 7.99);
  check_int "2^62 -> last bucket" (Metrics.bucket_count - 1)
    (Metrics.bucket_index (Float.pow 2.0 62.0));
  check_int "huge -> last bucket" (Metrics.bucket_count - 1) (Metrics.bucket_index 1e300);
  check "nan -> bucket 0" true (Metrics.bucket_index Float.nan = 0);
  check "bound b0" true (Metrics.bucket_lower_bound 0 = 0.0);
  check "bound b1" true (Metrics.bucket_lower_bound 1 = 1.0);
  check "bound b5" true (Metrics.bucket_lower_bound 5 = 16.0);
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~help:"test" "t.h" in
  List.iter (Metrics.observe h) [ 0.0; 0.5; 1.0; 1.5; 3.0; 1024.0; -5.0 ];
  check_int "count" 7 (Metrics.hist_count h);
  check "sum" true (Metrics.hist_sum h = 1025.0);
  check "min" true (Metrics.hist_min h = -5.0);
  check "max" true (Metrics.hist_max h = 1024.0);
  check_int "bucket 0 holds <1" 3 (Metrics.hist_bucket h 0);
  check_int "bucket 1 holds [1,2)" 2 (Metrics.hist_bucket h 1);
  check_int "bucket 2 holds [2,4)" 1 (Metrics.hist_bucket h 2);
  check_int "bucket 11 holds [1024,2048)" 1 (Metrics.hist_bucket h 11);
  Metrics.reset ~registry:r ();
  check_int "reset empties" 0 (Metrics.hist_count h);
  check_int "reset empties buckets" 0 (Metrics.hist_bucket h 0)

let test_registry_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"c" "a.c" in
  let g = Metrics.gauge ~registry:r ~help:"g" "a.g" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter" 5 (Metrics.counter_value c);
  Metrics.gauge_add g 2.0;
  Metrics.gauge_add g (-0.5);
  check "gauge" true (Metrics.gauge_value g = 1.5);
  check "names sorted" true (Metrics.names ~registry:r () = [ "a.c"; "a.g" ]);
  check "duplicate rejected" true
    (try
       ignore (Metrics.counter ~registry:r ~help:"dup" "a.c");
       false
     with Invalid_argument _ -> true)

(* --- trace ring buffer --- *)

let test_ring_wraparound () =
  Trace.configure ~capacity:8 ();
  Trace.enable ();
  let tick = ref 0.0 in
  Trace.install_clock (fun () ->
      tick := !tick +. 1.0;
      !tick);
  for i = 0 to 19 do
    Trace.instant ~cat:"test" (Printf.sprintf "i%d" i)
  done;
  Trace.disable ();
  let evs = Trace.events () in
  check_int "capacity bounds the buffer" 8 (List.length evs);
  check_int "dropped counts the overwritten" 12 (Trace.dropped ());
  check "oldest survivor is i12" true ((List.hd evs).Trace.name = "i12");
  check "newest survivor is i19" true
    ((List.nth evs 7).Trace.name = "i19");
  check "timestamps ascend" true
    (let rec asc = function
       | a :: (b :: _ as rest) -> a.Trace.ts < b.Trace.ts && asc rest
       | _ -> true
     in
     asc evs);
  Trace.clear ();
  check_int "clear empties" 0 (List.length (Trace.events ()));
  check_int "clear resets dropped" 0 (Trace.dropped ());
  Trace.configure ~capacity:65536 ()

(* --- Chrome trace JSON well-formedness --- *)

(* A tiny JSON parser: enough to verify the exporter emits a well-formed
   document with the trace_event structure (there is no JSON library in
   the environment, which is also why the exporter is hand-rolled). *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" ch)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char b c;
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some ('b' | 'f' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          J_arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
    | Some ('t' | 'f' | 'n') ->
        let lit w v =
          if !pos + String.length w <= n && String.sub s !pos (String.length w) = w then (
            pos := !pos + String.length w;
            v)
          else fail "bad literal"
        in
        if s.[!pos] = 't' then lit "true" (J_bool true)
        else if s.[!pos] = 'f' then lit "false" (J_bool false)
        else lit "null" J_null
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        let num_char = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while (match peek () with Some c -> num_char c | None -> false) do
          advance ()
        done;
        let tok = String.sub s start (!pos - start) in
        (match float_of_string_opt tok with
        | Some f -> J_num f
        | None -> fail "bad number")
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_trace_json () =
  Trace.configure ~capacity:1024 ();
  Trace.enable ();
  let tick = ref 0.0 in
  Trace.install_clock (fun () ->
      tick := !tick +. 0.5;
      !tick);
  (* Args with characters the exporter must escape. *)
  Trace.instant ~cat:"test"
    ~args:[ ("s", Trace.Str "quote \" backslash \\ newline \n done"); ("n", Trace.Int 42) ]
    "tricky \"name\"";
  let ts = Trace.now () in
  Trace.instant ~cat:"test" ~args:[ ("f", Trace.Float 1.25) ] "middle";
  Trace.complete ~cat:"test" ~ts ~args:[ ("bytes", Trace.Int 4096) ] "span";
  Trace.disable ();
  let doc = parse_json (Trace.to_chrome_json ()) in
  let events =
    match doc with
    | J_obj kvs -> (
        match List.assoc_opt "traceEvents" kvs with
        | Some (J_arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing")
    | _ -> Alcotest.fail "top level is not an object"
  in
  check_int "all events exported" 3 (List.length events);
  List.iter
    (fun ev ->
      match ev with
      | J_obj kvs ->
          check "name is a string" true
            (match List.assoc_opt "name" kvs with Some (J_str _) -> true | _ -> false);
          check "ph is X or i" true
            (match List.assoc_opt "ph" kvs with
            | Some (J_str ("X" | "i")) -> true
            | _ -> false);
          check "ts is a number" true
            (match List.assoc_opt "ts" kvs with Some (J_num _) -> true | _ -> false);
          check "pid present" true (List.assoc_opt "pid" kvs <> None);
          check "tid present" true (List.assoc_opt "tid" kvs <> None);
          if List.assoc_opt "ph" kvs = Some (J_str "X") then
            check "span has dur" true
              (match List.assoc_opt "dur" kvs with Some (J_num d) -> d >= 0.0 | _ -> false)
      | _ -> Alcotest.fail "event is not an object")
    events;
  (* The escaped string round-trips through our parser. *)
  let first = List.hd events in
  (match first with
  | J_obj kvs -> (
      match List.assoc_opt "args" kvs with
      | Some (J_obj args) ->
          check "escaped arg round-trips" true
            (List.assoc_opt "s" args = Some (J_str "quote \" backslash \\ newline \n done"))
      | _ -> Alcotest.fail "args missing")
  | _ -> ());
  (* Metrics JSON is parseable too. *)
  (match parse_json (Metrics.to_json ()) with
  | J_obj kvs -> check "metrics json non-empty" true (List.length kvs > 0)
  | _ -> Alcotest.fail "metrics json is not an object");
  Trace.clear ()

(* --- EXPLAIN reconciles with Io_stats deltas --- *)

let run_ok session sql =
  match Executor.run session sql with
  | r -> r
  | exception Executor.Sql_error m -> Alcotest.fail ("sql error: " ^ m)

let metric_rows = function
  | Executor.Rows { columns = [ "metric"; "value" ]; rows } ->
      List.filter_map
        (function [ Row.Text k; v ] -> Some (k, v) | _ -> None)
        rows
  | _ -> Alcotest.fail "expected an EXPLAIN metric/value table"

let metric_int rows key =
  match List.assoc_opt key rows with
  | Some (Row.Int v) -> Int64.to_int v
  | _ -> Alcotest.fail (Printf.sprintf "EXPLAIN row %s missing or not an int" key)

let test_explain_reconciles () =
  let eng = Engine.create ~media:Media.ssd () in
  let session = Executor.create_session eng in
  ignore (run_ok session "CREATE DATABASE d");
  ignore (run_ok session "USE d");
  ignore (run_ok session "CREATE TABLE t (k INT, v INT)");
  ignore (run_ok session "CREATE TABLE u (k INT, v INT)");
  for k = 0 to 19 do
    ignore (run_ok session (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" k));
    ignore (run_ok session (Printf.sprintf "INSERT INTO u VALUES (%d, 0)" k))
  done;
  Sim_clock.advance_us (Engine.clock eng) 1_000_000.0;
  for round = 1 to 3 do
    ignore (run_ok session (Printf.sprintf "UPDATE t SET v = %d" round));
    ignore (run_ok session (Printf.sprintf "UPDATE u SET v = %d" round))
  done;
  Sim_clock.advance_us (Engine.clock eng) 2_000_000.0;
  for round = 4 to 8 do
    ignore (run_ok session (Printf.sprintf "UPDATE t SET v = %d" round));
    ignore (run_ok session (Printf.sprintf "UPDATE u SET v = %d" round))
  done;
  ignore (run_ok session "CHECKPOINT");
  (* Snapshot lands between the two update phases: reading it must undo
     the second phase's history on every data page touched. *)
  ignore (run_ok session "CREATE DATABASE p AS SNAPSHOT OF d AS OF -2");
  let db = Option.get (Engine.find_database eng "p") in
  let handle = Option.get (Database.snapshot_handle db) in
  let log_stats = Rw_wal.Log_manager.stats (Database.log db) in
  (* Warm-up query on the *other* table: rewinds the snapshot's catalog
     pages so that resolving [p.u] below is pure cache hits.  Resolution
     happens before EXPLAIN samples its baseline, so catalog rewinds
     during resolve would show up in an external bracket but not in
     EXPLAIN's own deltas. *)
  ignore (run_ok session "SELECT * FROM p.t");
  (* Independent bracket around the whole statement: with the catalog
     warm, parse and resolve do no log I/O, so EXPLAIN's internal deltas
     must match exactly. *)
  let io0 = Io_stats.copy log_stats in
  let rewinds0 = As_of_snapshot.rewind_count handle in
  let rows = metric_rows (run_ok session "EXPLAIN SELECT * FROM p.u") in
  let iod = Io_stats.diff log_stats io0 in
  check_int "rows_returned" 20 (metric_int rows "rows_returned");
  let pages_rewound = metric_int rows "pages_rewound" in
  check "the query rewound pages" true (pages_rewound >= 1);
  check_int "pages_rewound = snapshot tally delta" pages_rewound
    (As_of_snapshot.rewind_count handle - rewinds0);
  let recent =
    List.filteri
      (fun i _ -> i < pages_rewound)
      (As_of_snapshot.rewinds handle)
  in
  let undone = List.fold_left (fun a r -> a + r.As_of_snapshot.rc_ops) 0 recent in
  check "history was undone" true (undone >= 20);
  check_int "records_undone = tally ops" undone (metric_int rows "records_undone");
  check_int "log_records_read = tally reads"
    (List.fold_left (fun a r -> a + r.As_of_snapshot.rc_log_reads) 0 recent)
    (metric_int rows "log_records_read");
  check_int "log_bytes_read = Io_stats delta"
    (iod.Io_stats.random_read_bytes + iod.Io_stats.seq_read_bytes)
    (metric_int rows "log_bytes_read");
  check_int "log_block_hits = Io_stats delta" iod.Io_stats.log_block_hits
    (metric_int rows "log_block_hits");
  check_int "log_block_misses = Io_stats delta" iod.Io_stats.log_block_misses
    (metric_int rows "log_block_misses");
  (* Second run: the rewound versions are in the side file now.  Drop the
     buffer pool so the re-read has to go to the side file rather than
     being served from memory — no new rewinds either way. *)
  Rw_buffer.Buffer_pool.flush_all (Database.pool db);
  Rw_buffer.Buffer_pool.drop_all (Database.pool db);
  let rows2 = metric_rows (run_ok session "EXPLAIN SELECT * FROM p.u") in
  check_int "second run rewinds nothing" 0 (metric_int rows2 "pages_rewound");
  check_int "second run undoes nothing" 0 (metric_int rows2 "records_undone");
  check "second run hits the side file" true (metric_int rows2 "side_file_hits" >= 1);
  (* The probes moved too: the registry's rewind counter covers at least
     the tally's pages (snapshot creation + this query). *)
  check "undo.page_rewinds counted" true
    (Metrics.counter_value Probes.page_rewinds >= As_of_snapshot.rewind_count handle)

(* --- docs/OBSERVABILITY.md lists every registry metric --- *)

let doc_metric_names path =
  (* cwd is _build/default/test under `dune runtest` (the docs glob dep
     materialises ../docs there); fall back to the source tree for direct
     execution. *)
  let path =
    List.find Sys.file_exists
      [ path; "../../../docs/OBSERVABILITY.md"; "docs/OBSERVABILITY.md" ]
  in
  let ic = open_in path in
  let names = ref [] in
  let in_section = ref false in
  (try
     while true do
       let line = input_line ic in
       if String.length line >= 3 && String.sub line 0 3 = "###" then
         in_section := String.trim line = "### Metric reference"
       else if !in_section && String.length line > 4 && String.sub line 0 3 = "| `" then begin
         match String.index_from_opt line 3 '`' with
         | Some stop -> names := String.sub line 3 (stop - 3) :: !names
         | None -> ()
       end
     done
   with End_of_file -> close_in ic);
  List.sort compare !names

let test_doc_sync () =
  (* Touch one probe so the linker cannot drop the Probes module (and with
     it the registrations) from this executable. *)
  ignore (Metrics.counter_name Probes.commits);
  let doc = doc_metric_names "../docs/OBSERVABILITY.md" in
  let registry = Metrics.names () in
  let pp_list l = String.concat ", " l in
  let missing = List.filter (fun n -> not (List.mem n doc)) registry in
  let stale = List.filter (fun n -> not (List.mem n registry)) doc in
  check ("doc missing: " ^ pp_list missing) true (missing = []);
  check ("doc stale: " ^ pp_list stale) true (stale = []);
  check "doc table non-empty" true (List.length doc > 0)

(* --- docs/CLI.md lists every shell meta-command --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let find_existing candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("none of the candidate paths exist: " ^ String.concat ", " candidates)

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* Meta-commands in the source are OCaml string literals like "\\help":
   in raw bytes, two backslashes followed by letters.  The scan requires
   a letter right after the pair, which skips '\\' char literals and
   "\\|" doc escapes. *)
let source_meta_commands src =
  let names = ref [] in
  let n = String.length src in
  let i = ref 0 in
  while !i < n - 2 do
    if src.[!i] = '\\' && src.[!i + 1] = '\\' && is_letter src.[!i + 2] then begin
      let j = ref (!i + 2) in
      while !j < n && is_letter src.[!j] do
        incr j
      done;
      names := String.sub src (!i + 2) (!j - !i - 2) :: !names;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !names

(* The doc names meta-commands in backticks: `\help`, `\trace on\|...`.
   One backslash in the markdown bytes, letters up to the next
   non-letter. *)
let doc_meta_commands doc =
  let names = ref [] in
  let n = String.length doc in
  let i = ref 0 in
  while !i < n - 2 do
    if doc.[!i] = '`' && doc.[!i + 1] = '\\' && is_letter doc.[!i + 2] then begin
      let j = ref (!i + 2) in
      while !j < n && is_letter doc.[!j] do
        incr j
      done;
      names := String.sub doc (!i + 2) (!j - !i - 2) :: !names;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !names

let test_cli_doc_sync () =
  let src =
    read_file
      (find_existing
         [ "../bin/rewind_cli.ml"; "../../../bin/rewind_cli.ml"; "bin/rewind_cli.ml" ])
  in
  let doc =
    read_file (find_existing [ "../docs/CLI.md"; "../../../docs/CLI.md"; "docs/CLI.md" ])
  in
  let in_source = source_meta_commands src in
  let in_doc = doc_meta_commands doc in
  let pp_list l = String.concat ", " (List.map (fun n -> "\\" ^ n) l) in
  let missing = List.filter (fun n -> not (List.mem n in_doc)) in_source in
  let stale = List.filter (fun n -> not (List.mem n in_source)) in_doc in
  check ("docs/CLI.md missing meta-commands: " ^ pp_list missing) true (missing = []);
  check ("docs/CLI.md stale meta-commands: " ^ pp_list stale) true (stale = []);
  check "meta-command tables non-empty" true (List.length in_source > 5);
  (* Subcommands too: every `Cmd.info "name"` must appear backticked. *)
  let subcommands =
    let names = ref [] in
    let marker = "Cmd.info \"" in
    let m = String.length marker in
    let n = String.length src in
    for i = 0 to n - m - 1 do
      if String.sub src i m = marker then begin
        let j = ref (i + m) in
        while !j < n && src.[!j] <> '"' do
          incr j
        done;
        let name = String.sub src (i + m) (!j - i - m) in
        if name <> "rewind_cli" then names := name :: !names
      end
    done;
    List.sort_uniq compare !names
  in
  let undocumented =
    List.filter
      (fun name ->
        let needle = "`" ^ name in
        let nl = String.length needle in
        let found = ref false in
        for i = 0 to String.length doc - nl do
          if String.sub doc i nl = needle then found := true
        done;
        not !found)
      subcommands
  in
  check
    ("docs/CLI.md missing subcommands: " ^ String.concat ", " undocumented)
    true (undocumented = []);
  check "subcommand list non-empty" true (List.length subcommands >= 5)

(* --- snapshot.create: loser_scan argument, probe, and doc row --- *)

(* The span-table row of docs/OBSERVABILITY.md for [name]: its argument
   names, in order. *)
let doc_span_args name =
  let doc =
    read_file
      (find_existing
         [ "../docs/OBSERVABILITY.md"; "../../../docs/OBSERVABILITY.md"; "docs/OBSERVABILITY.md" ])
  in
  let prefix = Printf.sprintf "| `%s` | span |" name in
  let row = List.find (String.starts_with ~prefix) (String.split_on_char '\n' doc) in
  match List.rev (String.split_on_char '|' row) with
  | _ :: args :: _ ->
      List.filter_map
        (fun a ->
          let a = String.trim a in
          if String.length a > 2 then Some (String.sub a 1 (String.length a - 2)) else None)
        (String.split_on_char ',' args)
  | _ -> Alcotest.fail ("malformed doc row for " ^ name)

(* Creation answers from the control-record directory when nothing is in
   flight at the split (loser_scan 0, probe unmoved) and runs the loser
   scan when something is (loser_scan 1, probe +1); the span's arguments
   are the ones the doc row lists. *)
let test_snapshot_loser_scan () =
  let clock = Sim_clock.create () in
  let db = Database.create ~name:"ls" ~clock ~media:Media.ram () in
  let cols = [ { Rw_catalog.Schema.name = "id"; ctype = Rw_catalog.Schema.Int } ] in
  let put k = Database.with_txn db (fun txn -> Database.insert db txn ~table:"t" [ Row.Int k ]) in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  List.iter
    (fun k ->
      Sim_clock.advance_us clock 1000.0;
      put k)
    [ 1L; 2L; 3L ];
  let quiet = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1000.0;
  let open_txn = Database.begin_txn db in
  Database.insert db open_txn ~table:"t" [ Row.Int 100L ];
  Sim_clock.advance_us clock 1000.0;
  put 4L;
  let busy = Sim_clock.now_us clock in
  Sim_clock.advance_us clock 1000.0;
  Trace.configure ~capacity:4096 ();
  Trace.enable ();
  let create name wall_us =
    let before = Metrics.counter_value Probes.snapshot_loser_scans in
    ignore (Database.create_as_of_snapshot db ~name ~wall_us);
    let span =
      List.find (fun e -> e.Trace.name = "snapshot.create") (List.rev (Trace.events ()))
    in
    (span, Metrics.counter_value Probes.snapshot_loser_scans - before)
  in
  let quiet_span, quiet_scans = create "quiet" quiet in
  let busy_span, busy_scans = create "busy" busy in
  Trace.disable ();
  Trace.clear ();
  check "quiet split: loser_scan 0" true (List.assoc_opt "loser_scan" quiet_span.Trace.args = Some (Trace.Int 0));
  check_int "quiet split: no loser scan counted" 0 quiet_scans;
  check "busy split: loser_scan 1" true (List.assoc_opt "loser_scan" busy_span.Trace.args = Some (Trace.Int 1));
  check_int "busy split: one loser scan counted" 1 busy_scans;
  check "busy split: one txn in flight" true
    (List.assoc_opt "in_flight_txns" busy_span.Trace.args = Some (Trace.Int 1));
  check "snapshot.create arguments match the doc row" true
    (List.map fst busy_span.Trace.args = doc_span_args "snapshot.create")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "registry basics" `Quick test_registry_basics;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "chrome json" `Quick test_trace_json;
        ] );
      ( "explain",
        [ Alcotest.test_case "reconciles with io_stats" `Quick test_explain_reconciles ] );
      ( "docs",
        [
          Alcotest.test_case "metric table in sync" `Quick test_doc_sync;
          Alcotest.test_case "snapshot.create loser_scan" `Quick test_snapshot_loser_scan;
          Alcotest.test_case "cli meta-commands in sync" `Quick test_cli_doc_sync;
        ] );
    ]
