(* Named metrics: counters, gauges and log-scale histograms.

   The registry generalises the flat [Io_stats] counter struct: an
   instrument is created once (at module initialisation time, so the name
   set is complete as soon as the program links) and updated from the hot
   paths with one or two memory writes.  Snapshots come out through a
   single [pp]/[to_json] path instead of one ad-hoc printer per subsystem. *)

let bucket_count = 64

type counter = { c_name : string; mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  buckets : int array; (* log2 buckets; see [bucket_index] *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type metric = { name : string; help : string; unit_ : string; inst : instrument }

type registry = { mutable metrics : metric list (* newest first *) }

let create () = { metrics = [] }
let default = create ()

let register registry name help unit_ inst =
  let registry = Option.value registry ~default in
  if List.exists (fun m -> m.name = name) registry.metrics then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %s" name);
  registry.metrics <- { name; help; unit_; inst } :: registry.metrics

let counter ?registry ?(unit_ = "count") ~help name =
  let c = { c_name = name; c_value = 0 } in
  register registry name help unit_ (Counter c);
  c

let gauge ?registry ?(unit_ = "value") ~help name =
  let g = { g_value = 0.0 } in
  register registry name help unit_ (Gauge g);
  g

let histogram ?registry ?(unit_ = "value") ~help name =
  let h =
    {
      buckets = Array.make bucket_count 0;
      h_count = 0;
      h_sum = 0.0;
      h_min = infinity;
      h_max = neg_infinity;
    }
  in
  register registry name help unit_ (Histogram h);
  h

(* --- updates (the hot path) --- *)

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let counter_name c = c.c_name

let set g v = g.g_value <- v
let gauge_add g v = g.g_value <- g.g_value +. v
let gauge_value g = g.g_value

(* Bucket 0 holds everything below 1 (including zero and, defensively,
   negative observations); bucket k >= 1 holds [2^(k-1), 2^k); the last
   bucket absorbs the unbounded tail. *)
let bucket_index v =
  if not (v >= 1.0) then 0
  else min (bucket_count - 1) (1 + int_of_float (Float.log2 v))

let bucket_lower_bound i = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 1))

let observe h v =
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_min h = h.h_min
let hist_max h = h.h_max
let hist_bucket h i = h.buckets.(i)

(* --- snapshots --- *)

let metrics_of ?registry () =
  let registry = Option.value registry ~default in
  List.rev registry.metrics

let names ?registry () =
  List.map (fun m -> m.name) (metrics_of ?registry ()) |> List.sort compare

let reset ?registry () =
  List.iter
    (fun m ->
      match m.inst with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
          Array.fill h.buckets 0 bucket_count 0;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
    (metrics_of ?registry ())

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let pp fmt () =
  List.iter
    (fun m ->
      match m.inst with
      | Counter c -> Format.fprintf fmt "%-28s %12d %s@\n" m.name c.c_value m.unit_
      | Gauge g -> Format.fprintf fmt "%-28s %12s %s@\n" m.name (float_str g.g_value) m.unit_
      | Histogram h ->
          if h.h_count = 0 then Format.fprintf fmt "%-28s %12s %s@\n" m.name "-" m.unit_
          else
            Format.fprintf fmt "%-28s %12d obs: sum %s min %s max %s mean %s (%s)@\n" m.name
              h.h_count (float_str h.h_sum) (float_str h.h_min) (float_str h.h_max)
              (float_str (h.h_sum /. float_of_int h.h_count))
              m.unit_)
    (metrics_of ())

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_nan v || Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan v then 0.0 else v)
  else Printf.sprintf "%.6g" v

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let ms = metrics_of () in
  List.iteri
    (fun i m ->
      Buffer.add_string b (Printf.sprintf "  \"%s\": {" (json_escape m.name));
      Buffer.add_string b
        (Printf.sprintf "\"help\": \"%s\", \"unit\": \"%s\", " (json_escape m.help)
           (json_escape m.unit_));
      (match m.inst with
      | Counter c -> Buffer.add_string b (Printf.sprintf "\"type\": \"counter\", \"value\": %d" c.c_value)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf "\"type\": \"gauge\", \"value\": %s" (json_float g.g_value))
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf "\"type\": \"histogram\", \"count\": %d, \"sum\": %s" h.h_count
               (json_float h.h_sum));
          if h.h_count > 0 then
            Buffer.add_string b
              (Printf.sprintf ", \"min\": %s, \"max\": %s" (json_float h.h_min)
                 (json_float h.h_max));
          Buffer.add_string b ", \"buckets\": [";
          let first = ref true in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                if not !first then Buffer.add_string b ", ";
                first := false;
                Buffer.add_string b
                  (Printf.sprintf "[%s, %d]" (json_float (bucket_lower_bound i)) n)
              end)
            h.buckets;
          Buffer.add_string b "]");
      Buffer.add_string b "}";
      if i < List.length ms - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    ms;
  Buffer.add_string b "}\n";
  Buffer.contents b
