(* Selective transaction undo with dependency-aware replay.

   Given a committed victim transaction t, rewind only the pages in t's
   downstream closure D (per {!Dep_graph}) to just before t's effects
   and re-apply the other members of D in commit order — leaving every
   independent transaction untouched.  The result is published either as
   a read-only what-if view or as an in-place repair logged through the
   ordinary write path, so the repaired history is itself recoverable
   and replicable.

   Why this is sound at page granularity: cut(P) is one less than the
   first D-write to P, so everything below the cut predates D on that
   page.  Above the cut, {!validate} checks (via the chain index) that
   every record belongs to D or to an aborted transaction whose page
   effects are entirely above the cut (net-nil there); a committed
   outsider writing above the cut is folded into D and the plan is
   recomputed — with serial histories this never fires, it is the
   backstop for interleaved multi-session logs.  A record owned by an
   in-flight transaction (open in some session, neither committed nor
   aborted — {!Log_manager.txn_resolution}) is a hard conflict: the
   rewind would erase writes that nothing ever replays, and that
   session's later commit or abort would then act on pages missing its
   rows.  Likewise any owner whose chain crosses the retention
   boundary.  Rewinding each affected
   page to its cut therefore removes exactly D's effects plus net-nil
   noise, and replaying D minus the victim in global LSN order restores
   everything but the victim.

   Replay is key-aware, not slot-aware: removing the victim shifts slot
   indices, so each logged operation is re-anchored by its row key
   ({!Rw_storage.Slotted_page.find_key}) before being applied.  Logged
   after-images are re-applied verbatim, which equals re-execution
   exactly when the replayed writes do not compute on the victim's data
   — the blind-write caveat docs/WHATIF.md spells out.  Structural
   operations (format/preformat/header/FPI) have no key anchor and are
   refused as conflicts, as is any non-B-tree page with replay work. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Sparse_file = Rw_storage.Sparse_file
module Txn_id = Rw_wal.Txn_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Page_undo = Rw_core.Page_undo
module Access_ctx = Rw_access.Access_ctx
module Rowfmt = Rw_access.Rowfmt
module Txn_manager = Rw_txn.Txn_manager
module Buffer_pool = Rw_buffer.Buffer_pool
module Database = Rw_engine.Database
module Engine = Rw_engine.Engine
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes

type scope = Dependents | All_successors

type conflict = { page : Page_id.t; lsn : Lsn.t; reason : string }

type stats = {
  closure_size : int;
  replayed_txns : int;
  pages_rewound : int;
  ops_unwound : int;
  ops_replayed : int;
}

exception Unknown_txn of Txn_id.t

(* ---------------------------------------------------------------- *)
(* Planning: the removed set D, the affected pages and their cuts.  *)

type plan = {
  removed : Dep_graph.node list; (* D: victim + replay set, commit order *)
  replay : Dep_graph.node list; (* D minus the victim, commit order *)
  cuts : (Page_id.t * Lsn.t) list; (* affected page -> rewind target *)
}

let no_page = Page_id.nil

let in_set nodes =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (n : Dep_graph.node) -> Hashtbl.replace tbl (Txn_id.to_int n.ts_txn) ()) nodes;
  fun txn -> Hashtbl.mem tbl (Txn_id.to_int txn)

let cuts_of removed =
  let firsts : (int, Lsn.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (n : Dep_graph.node) ->
      List.iter
        (fun (page, lsn) ->
          let key = Page_id.to_int page in
          match Hashtbl.find_opt firsts key with
          | Some prev when Lsn.(prev <= lsn) -> ()
          | _ -> Hashtbl.replace firsts key lsn)
        n.ts_writes)
    removed;
  Hashtbl.fold
    (fun key first acc ->
      (Page_id.of_int key, Lsn.of_int (Lsn.to_int first - 1)) :: acc)
    firsts []
  |> List.sort (fun (a, _) (b, _) -> Page_id.compare a b)

(* Does the (non-graph, i.e. aborted or in-flight) transaction owning
   [from_lsn] have a record on [page] at or below [cut]?  Walks the
   transaction's own backward chain — O(its ops), each record priced as a
   read but only its header peeked. *)
let straddles_cut ~log ~page ~cut ~from_lsn =
  let rec walk lsn =
    if Lsn.is_nil lsn then false
    else begin
      Log_manager.charge_read log lsn;
      let pk = Log_manager.peek_record log lsn in
      (Log_record.is_page_kind pk.Log_record.p_kind
      && Page_id.equal pk.Log_record.p_page page
      && Lsn.(lsn <= cut))
      || walk pk.Log_record.p_prev_txn_lsn
    end
  in
  walk from_lsn

(* Check every above-cut chain record on every affected page: members of
   D are expected; a committed outsider is returned for widening; an
   aborted transaction must not straddle the cut; an in-flight (open,
   uncommitted) transaction — possibly another session's — is refused
   outright, because the page rewind would erase its writes and nothing
   ever replays them.  So is any transaction whose history crosses the
   retention boundary: it can neither be replayed nor proven net-nil. *)
let validate ~log ~graph ~removed ~cuts =
  let is_removed = in_set removed in
  let widen = ref [] in
  let conflicts = ref [] in
  List.iter
    (fun (page, cut) ->
      let chain =
        Log_manager.chain_segment log page ~from:(Log_manager.end_lsn log) ~down_to:cut
      in
      Array.iteri
        (fun k lsn ->
          let pk = Log_manager.peek_located log chain k in
          let txn = pk.Log_record.p_txn in
          if Txn_id.is_nil txn || is_removed txn then ()
          else
            match Dep_graph.find graph txn with
            | Some node ->
                if not (List.exists (fun (n : Dep_graph.node) -> Txn_id.equal n.ts_txn txn) !widen)
                then widen := node :: !widen
            | None -> (
                let conflict reason = conflicts := { page; lsn; reason } :: !conflicts in
                match Log_manager.txn_resolution log txn with
                | `Active ->
                    conflict "an in-flight transaction writes above the rewind cut"
                | `Committed ->
                    conflict
                      "a transaction committed after the dependency graph was built; retry"
                | `Unknown ->
                    conflict
                      "a transaction straddling the log retention boundary writes above the \
                       rewind cut"
                | `Aborted -> (
                    match straddles_cut ~log ~page ~cut ~from_lsn:lsn with
                    | true -> conflict "aborted transaction straddles the rewind cut"
                    | false -> ()
                    | exception Log_manager.Log_truncated _ ->
                        conflict
                          "aborted transaction's history crosses the log retention boundary")))
        (Log_manager.located_lsns chain))
    cuts;
  (!widen, List.rev !conflicts)

let make_plan ~log ~graph ~victim ~scope =
  let victim_node =
    match Dep_graph.find graph victim with
    | Some n -> n
    | None -> raise (Unknown_txn victim)
  in
  let initial =
    match scope with
    | Dependents -> Dep_graph.closure graph victim
    | All_successors -> Dep_graph.successors graph victim
  in
  (* Fixpoint: fold committed outsiders writing above a cut into D. *)
  let rec settle removed =
    let cuts = cuts_of removed in
    let widen, conflicts = validate ~log ~graph ~removed ~cuts in
    if conflicts <> [] then Error conflicts
    else if widen = [] then Ok (removed, cuts)
    else
      let extra =
        List.concat_map (fun (n : Dep_graph.node) -> Dep_graph.closure graph n.ts_txn) widen
      in
      let is_old = in_set removed in
      let fresh =
        List.filter (fun (n : Dep_graph.node) -> not (is_old n.ts_txn)) extra
      in
      let merged =
        List.sort_uniq
          (fun (a : Dep_graph.node) (b : Dep_graph.node) -> Lsn.compare a.ts_commit_lsn b.ts_commit_lsn)
          (removed @ fresh)
      in
      settle merged
  in
  match settle initial with
  | Error conflicts -> Error conflicts
  | Ok (removed, cuts) ->
      let structural =
        List.filter_map
          (fun (n : Dep_graph.node) ->
            if n.ts_structural then
              Some
                {
                  page = no_page;
                  lsn = n.ts_first_lsn;
                  reason =
                    Printf.sprintf "transaction %d logged a structural page operation"
                      (Txn_id.to_int n.ts_txn);
                }
            else None)
          removed
      in
      let clr_victim =
        if victim_node.ts_has_clr then
          [
            {
              page = no_page;
              lsn = victim_node.ts_first_lsn;
              reason = "victim performed a partial rollback (CLRs); remove it whole-history instead";
            };
          ]
        else []
      in
      let conflicts = structural @ clr_victim in
      if conflicts <> [] then Error conflicts
      else
        let replay =
          List.filter
            (fun (n : Dep_graph.node) -> not (Txn_id.equal n.ts_txn victim))
            removed
        in
        Ok { removed; replay; cuts }

(* ---------------------------------------------------------------- *)
(* Replay: target images on scratch copies.                         *)

(* The victim-free history shifts slot indices, so each logged
   operation is re-anchored by row key before being applied. *)
let replay_op p page lsn op =
  let fail reason = Error { page; lsn; reason } in
  match op with
  | Log_record.Insert_row { row; _ } -> (
      match Slotted_page.find_key p (Rowfmt.row_key row) with
      | Either.Left _ -> fail "replayed insert finds its key already present"
      | Either.Right at -> (
          try
            Slotted_page.insert p ~at row;
            Ok ()
          with Slotted_page.Page_full -> fail "replayed insert does not fit"))
  | Log_record.Delete_row { row; _ } -> (
      match Slotted_page.find_key p (Rowfmt.row_key row) with
      | Either.Left at ->
          Slotted_page.delete p ~at;
          Ok ()
      | Either.Right _ -> fail "replayed delete finds no row under its key")
  | Log_record.Update_row { before; after; _ } ->
      let key = Rowfmt.row_key before in
      if Rowfmt.row_key after <> key then fail "replayed update changes the row key"
      else (
        match Slotted_page.find_key p key with
        | Either.Left at -> (
            try
              Slotted_page.set p ~at after;
              Ok ()
            with Slotted_page.Page_full -> fail "replayed update does not fit")
        | Either.Right _ -> fail "replayed update finds no row under its key")
  | Log_record.Set_header _ | Log_record.Format _ | Log_record.Preformat _
  | Log_record.Full_image _ ->
      fail "structural operation in the replay set"

(* All page operations (CLRs included — together they are the net
   effect) of one transaction, ascending by LSN; walks the txn chain back
   from its commit record, O(its ops). *)
let ops_of_txn ~log (node : Dep_graph.node) =
  let rec walk lsn acc =
    if Lsn.is_nil lsn then acc
    else
      let r = Log_manager.read log lsn in
      let acc =
        match r.Log_record.body with
        | Page_op { page; op; _ } | Clr { page; op; _ } -> (lsn, page, op) :: acc
        | _ -> acc
      in
      walk r.Log_record.prev_txn_lsn acc
  in
  walk node.ts_commit_lsn []

type targets = {
  images : (Page_id.t * Page.t) list; (* repaired image per affected page *)
  t_stats : stats;
}

let compute_targets ~ctx ~log (plan : plan) =
  let copies : (int, Page.t) Hashtbl.t = Hashtbl.create 16 in
  let ops_unwound = ref 0 in
  let conflicts = ref [] in
  (* Rewind every affected page to its cut on a scratch copy. *)
  List.iter
    (fun (page, cut) ->
      let p = Access_ctx.read ctx page (fun p -> Page.copy p) in
      (try
         let r = Page_undo.prepare_page_as_of ~log ~page:p ~as_of:cut in
         ops_unwound := !ops_unwound + r.Page_undo.ops_undone
       with
      | Log_manager.Log_truncated _ ->
          conflicts :=
            { page; lsn = cut; reason = "rewind cut is below the log retention window" }
            :: !conflicts
      | Page_undo.Chain_broken { lsn; _ } ->
          conflicts := { page; lsn; reason = "page chain is broken" } :: !conflicts);
      Hashtbl.replace copies (Page_id.to_int page) p)
    plan.cuts;
  (* Gather the replay set's operations in global LSN order.  A replay
     chain reaching below the retention boundary cannot be re-applied;
     surface it as the same typed conflict a truncated rewind gets. *)
  let ops =
    if !conflicts <> [] then []
    else
      try
        plan.replay
        |> List.concat_map (fun n -> ops_of_txn ~log n)
        |> List.sort (fun (a, _, _) (b, _, _) -> Lsn.compare a b)
      with Log_manager.Log_truncated l ->
        conflicts :=
          {
            page = no_page;
            lsn = l;
            reason = "replay set's history crosses the log retention window";
          }
          :: !conflicts;
        []
  in
  let ops_replayed = ref 0 in
  if !conflicts = [] then
    List.iter
      (fun (lsn, page, op) ->
        if !conflicts = [] then
          let p = Hashtbl.find copies (Page_id.to_int page) in
          if Page.typ p <> Page.Btree then
            conflicts :=
              { page; lsn; reason = "replay target is not a B-tree page" } :: !conflicts
          else
            match replay_op p page lsn op with
            | Ok () -> incr ops_replayed
            | Error c -> conflicts := c :: !conflicts)
      ops;
  match !conflicts with
  | _ :: _ as cs -> Error (List.rev cs)
  | [] ->
      let images =
        Hashtbl.fold (fun key p acc -> (Page_id.of_int key, p) :: acc) copies []
        |> List.sort (fun (a, _) (b, _) -> Page_id.compare a b)
      in
      Ok
        {
          images;
          t_stats =
            {
              closure_size = List.length plan.removed;
              replayed_txns = List.length plan.replay;
              pages_rewound = List.length plan.cuts;
              ops_unwound = !ops_unwound;
              ops_replayed = !ops_replayed;
            };
        }

let record_stats (s : stats) =
  Obs.incr Probes.whatif_rewinds;
  Obs.add Probes.whatif_pages_rewound s.pages_rewound;
  Obs.add Probes.whatif_ops_replayed s.ops_replayed

let conflicted cs =
  Obs.incr Probes.whatif_conflicts;
  Error cs

let prepare ~ctx ~log ~graph ~victim ~scope =
  match make_plan ~log ~graph ~victim ~scope with
  | Error cs -> conflicted cs
  | Ok plan -> (
      match compute_targets ~ctx ~log plan with
      | Error cs -> conflicted cs
      | Ok targets -> Ok (plan, targets))

let preview ~ctx ~log ~graph ~victim ?(scope = Dependents) () =
  match prepare ~ctx ~log ~graph ~victim ~scope with
  | Error _ as e -> e
  | Ok (_plan, targets) ->
      List.iter (fun (_, p) -> Page.release p) targets.images;
      Ok targets.t_stats

(* ---------------------------------------------------------------- *)
(* Publication 1: in-place repair through the ordinary write path.  *)

(* Turn (current, target) into key-anchored row operations.  Slots are
   computed against a working copy that evolves exactly as the live page
   will under Access_ctx.modify, so each emitted slot index is valid at
   its application time.  Deletes run first (freeing space), then
   updates, then inserts. *)
let diff_ops ~current ~target =
  let w = Page.copy current in
  let keys p = Slotted_page.fold p ~init:[] ~f:(fun acc at _ -> Slotted_page.key_at p ~at :: acc) in
  let target_row key =
    match Slotted_page.find_key target key with
    | Either.Left at -> Some (Slotted_page.get target ~at)
    | Either.Right _ -> None
  in
  let ops = ref [] in
  let emit op =
    Log_record.redo Page_id.nil op w;
    ops := op :: !ops
  in
  let current_keys = List.rev (keys w) in
  (* Deletes. *)
  List.iter
    (fun key ->
      if target_row key = None then
        match Slotted_page.find_key w key with
        | Either.Left at ->
            emit (Log_record.Delete_row { slot = at; row = Slotted_page.get w ~at })
        | Either.Right _ -> assert false)
    current_keys;
  (* Updates. *)
  List.iter
    (fun key ->
      match target_row key with
      | None -> ()
      | Some after -> (
          match Slotted_page.find_key w key with
          | Either.Left at ->
              let before = Slotted_page.get w ~at in
              if before <> after then
                emit (Log_record.Update_row { slot = at; before; after })
          | Either.Right _ -> assert false))
    current_keys;
  (* Inserts. *)
  Slotted_page.iter target (fun _ row ->
      let key = Rowfmt.row_key row in
      match Slotted_page.find_key w key with
      | Either.Left _ -> ()
      | Either.Right at -> emit (Log_record.Insert_row { slot = at; row }));
  Page.release w;
  List.rev !ops

let repair ~ctx ~log ~graph ~victim ?(scope = Dependents) ~wall_us ?on_progress () =
  match prepare ~ctx ~log ~graph ~victim ~scope with
  | Error _ as e -> e
  | Ok (_plan, targets) ->
      let txns = Access_ctx.txns ctx in
      let txn = Txn_manager.begin_txn txns in
      List.iteri
        (fun i (page, target) ->
          (match on_progress with Some f -> f i | None -> ());
          let ops = Access_ctx.read ctx page (fun current -> diff_ops ~current ~target) in
          List.iter (fun op -> Access_ctx.modify ctx txn page op) ops;
          Page.release target)
        targets.images;
      ignore (Txn_manager.commit_begin txns txn ~wall_us);
      ignore (Txn_manager.flush_commits txns);
      Txn_manager.finished txns txn;
      record_stats targets.t_stats;
      Ok targets.t_stats

(* ---------------------------------------------------------------- *)
(* Publication 2: a read-only what-if view.                         *)

let what_if_view ~engine ~db ~graph ~victim ~name =
  let ctx = Database.ctx db in
  let log = Database.log db in
  match prepare ~ctx ~log ~graph ~victim ~scope:Dependents with
  | Error _ as e -> e
  | Ok (_plan, targets) ->
      let side =
        Sparse_file.create ~clock:(Database.clock db) ~media:(Database.media db) ()
      in
      List.iter
        (fun (page, image) ->
          Sparse_file.write side page image;
          Page.release image)
        targets.images;
      let source =
        {
          Buffer_pool.read =
            (fun page ->
              match Sparse_file.read side page with
              | Some p -> p
              | None -> Access_ctx.read ctx page (fun p -> Page.copy p));
          write = (fun page p -> Sparse_file.write side page p);
          write_seq = None;
          read_cached = None;
        }
      in
      let pool = Buffer_pool.create ~capacity:64 ~source () in
      let on_drop () =
        Buffer_pool.drop_all pool;
        Sparse_file.drop side
      in
      let view = Database.view_over_pool ~name ~base:db ~pool ~snapshot:None ~on_drop in
      let view = Engine.attach_database engine view in
      record_stats targets.t_stats;
      Ok (view, targets.t_stats)
