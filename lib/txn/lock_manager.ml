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

module Res_tbl = Hashtbl.Make (struct
  type t = resource

  let equal a b =
    match (a, b) with
    | Table x, Table y -> Int.equal x y
    | Row (tx, kx), Row (ty, ky) -> Int.equal tx ty && Int64.equal kx ky
    | Table _, Row _ | Row _, Table _ -> false

  let hash = function Table x -> x | Row (tid, key) -> (Int64.to_int key * 31) + tid
end)

module Int_tbl = Rw_storage.Int_tbl

type t = {
  table : (Txn_id.t * mode) list ref Res_tbl.t;
      (* resource -> its holders; an entry exists only while someone
         holds the resource *)
  held : resource list ref Int_tbl.t;
      (* txn -> every resource it holds, so [release_all] visits only
         those *)
}

let create () = { table = Res_tbl.create 256; held = Int_tbl.create 16 }

let rec mode_of txn = function
  | [] -> None
  | (id, m) :: rest -> if Txn_id.equal id txn then Some m else mode_of txn rest

let others_than txn l = List.filter (fun (id, _) -> not (Txn_id.equal id txn)) l

let note_held t txn res =
  let key = Txn_id.to_int txn in
  match Int_tbl.find t.held key with
  | l -> l := res :: !l
  | exception Not_found -> Int_tbl.add t.held key (ref [ res ])

(* Nothing is stored before the request is granted, so a refused request
   leaves the table as it found it. *)
let acquire t txn res mode =
  let cell = Res_tbl.find_opt t.table res in
  let l = match cell with Some l -> !l | None -> [] in
  let mine = mode_of txn l in
  match mine with
  | Some held when covers held mode -> ()
  | _ -> (
      let others = others_than txn l in
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
      (match cell with
      | Some cell -> cell := (txn, final) :: others
      | None -> Res_tbl.add t.table res (ref [ (txn, final) ]));
      match mine with None -> note_held t txn res | Some _ -> ())

let release_all t txn =
  let key = Txn_id.to_int txn in
  match Int_tbl.find_opt t.held key with
  | None -> ()
  | Some held ->
      Int_tbl.remove t.held key;
      List.iter
        (fun res ->
          match Res_tbl.find_opt t.table res with
          | None -> ()
          | Some l ->
              match others_than txn !l with
              | [] -> Res_tbl.remove t.table res
              | rest -> l := rest)
        !held

let holds t txn res mode =
  match Res_tbl.find_opt t.table res with
  | None -> false
  | Some l -> ( match mode_of txn !l with Some held -> covers held mode | None -> false)

let lock_count t = Res_tbl.fold (fun _ l acc -> acc + List.length !l) t.table 0
