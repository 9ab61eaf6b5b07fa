(* Transaction dependency graph over the committed history.

   Nodes are the committed, non-aborted transactions retained in the
   log; edges follow the page-granularity dependency rule: on each page,
   consecutive distinct writers (in first-write LSN order) are linked
   earlier -> later.  Because our write sets are page-granular — the
   finest unit the physiological log records without payload
   interpretation — a reader that only {e read} a page some earlier
   transaction wrote is already covered: any write it performed lands on
   some page and is ordered there.  The cost is conservatism: two
   transactions that touched disjoint rows of the same page are declared
   dependent.  (docs/WHATIF.md discusses the exactness caveats,
   including phantom/predicate reads, which page-granularity likewise
   over-approximates safely.)

   The graph is built from {!Log_manager.txn_summaries}, the log's
   write-set index, which stays exact through crashes, tail repair,
   failover cuts and reloads — O(live transactions + write-set size), no
   log scan, no payload decode. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

type node = Log_manager.txn_summary

type t = {
  nodes : node array; (* ascending by commit LSN *)
  by_txn : (int, int) Hashtbl.t; (* txn id -> index into [nodes] *)
  succ : int list array; (* direct dependents, ascending index *)
  edge_count : int;
}

let build ~log =
  let nodes = Array.of_list (Log_manager.txn_summaries log) in
  let n = Array.length nodes in
  let by_txn = Hashtbl.create (2 * max 1 n) in
  Array.iteri
    (fun i (nd : node) -> Hashtbl.replace by_txn (Txn_id.to_int nd.ts_txn) i)
    nodes;
  (* Per page, the (first-write LSN, writer index) pairs. *)
  let page_writers : (int, (Lsn.t * int) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Array.iteri
    (fun i (nd : node) ->
      List.iter
        (fun (page, lsn) ->
          let key = Page_id.to_int page in
          let cell =
            match Hashtbl.find_opt page_writers key with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add page_writers key c;
                c
          in
          cell := (lsn, i) :: !cell)
        nd.ts_writes)
    nodes;
  let succ = Array.make n [] in
  let edge_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let edge_count = ref 0 in
  let add_edge i j =
    if i <> j && not (Hashtbl.mem edge_seen (i, j)) then begin
      Hashtbl.add edge_seen (i, j) ();
      succ.(i) <- j :: succ.(i);
      incr edge_count
    end
  in
  Hashtbl.iter
    (fun _page cell ->
      let writers =
        List.sort (fun (a, _) (b, _) -> Lsn.compare a b) !cell
      in
      let rec link = function
        | (_, i) :: ((_, j) :: _ as rest) ->
            add_edge i j;
            link rest
        | [ _ ] | [] -> ()
      in
      link writers)
    page_writers;
  Array.iteri (fun i l -> succ.(i) <- List.sort_uniq compare l) succ;
  Obs.incr Probes.whatif_graph_builds;
  Obs.add Probes.whatif_graph_edges !edge_count;
  { nodes; by_txn; succ; edge_count = !edge_count }

let node_count t = Array.length t.nodes
let edge_count t = t.edge_count
let built_from_index _ = true
let nodes t = Array.to_list t.nodes

let find t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | Some i -> Some t.nodes.(i)
  | None -> None

let dependents t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some i -> List.map (fun j -> t.nodes.(j)) t.succ.(i)

let closure t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some root ->
      let in_closure = Array.make (Array.length t.nodes) false in
      let rec visit i =
        if not in_closure.(i) then begin
          in_closure.(i) <- true;
          List.iter visit t.succ.(i)
        end
      in
      visit root;
      (* Nodes are stored ascending by commit LSN, so a left-to-right
         sweep yields the closure in serialization order. *)
      let acc = ref [] in
      for i = Array.length t.nodes - 1 downto 0 do
        if in_closure.(i) then acc := t.nodes.(i) :: !acc
      done;
      !acc

let successors t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some root ->
      let acc = ref [] in
      for i = Array.length t.nodes - 1 downto root do
        acc := t.nodes.(i) :: !acc
      done;
      !acc
