module Txn_id = Rw_wal.Txn_id

type mode = IS | IX | S | X

type resource = Table of int | Row of int * int64

exception Lock_conflict of resource

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX -> true
  | S, S -> true
  | _, X | X, _ -> false
  | IX, S | S, IX -> false

(* Mode strength for upgrades: a held mode covers a request iff it is at
   least as strong along the lattice IS < IX < X and IS < S < X. *)
let covers held req =
  match (held, req) with
  | X, _ -> true
  | S, (S | IS) -> true
  | IX, (IX | IS) -> true
  | IS, IS -> true
  | _ -> false

type t = { table : (resource, (Txn_id.t * mode) list ref) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let holders t res =
  match Hashtbl.find_opt t.table res with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.table res l;
      l

let acquire t txn res mode =
  let l = holders t res in
  let mine = List.assoc_opt txn !l in
  match mine with
  | Some held when covers held mode -> ()
  | _ ->
      let others = List.filter (fun (id, _) -> not (Txn_id.equal id txn)) !l in
      List.iter (fun (_, m) -> if not (compatible m mode) then raise (Lock_conflict res)) others;
      (* Upgrade = combine held and requested into the weakest covering mode. *)
      let final =
        match (mine, mode) with
        | None, m -> m
        | Some held, m when covers held m -> held
        | Some IS, IX | Some IX, IS -> IX
        | Some IS, S | Some S, IS -> S
        | Some IX, S | Some S, IX | Some _, X | Some X, _ -> X
        | Some _, m -> m
      in
      l := (txn, final) :: others

let release_all t txn =
  let empty = ref [] in
  Hashtbl.iter
    (fun res l ->
      l := List.filter (fun (id, _) -> not (Txn_id.equal id txn)) !l;
      if !l = [] then empty := res :: !empty)
    t.table;
  List.iter (Hashtbl.remove t.table) !empty

let holds t txn res mode =
  match Hashtbl.find_opt t.table res with
  | None -> false
  | Some l -> (
      match List.assoc_opt txn !l with
      | Some held -> covers held mode
      | None -> false)

let lock_count t = Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.table 0
