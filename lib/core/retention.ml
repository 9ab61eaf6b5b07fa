module Lsn = Rw_storage.Lsn
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager

type t = {
  mutable retention_us : float option;
  mutable floors : (string * (unit -> Lsn.t option)) list;
      (* Named truncation floors (e.g. one per attached replica): the cut
         never rises above any floor, so sealed segments a live replica
         has not yet shipped survive aggressive retention. *)
}

let create ?retention_us () = { retention_us; floors = [] }
let set_interval t v = t.retention_us <- v
let interval t = t.retention_us

let register_floor t ~name f =
  t.floors <- (name, f) :: List.remove_assoc name t.floors

let unregister_floor t ~name = t.floors <- List.remove_assoc name t.floors

let floor_lsn t =
  List.fold_left
    (fun acc (_, f) ->
      match f () with
      | None -> acc
      | Some l -> ( match acc with None -> Some l | Some a -> Some (Lsn.min a l)))
    None t.floors

let cutoff t ~log ~now_us =
  match t.retention_us with
  | None -> None
  | Some retention ->
      let horizon = now_us -. retention in
      (* Checkpoints, newest first.  We need the newest checkpoint whose
         wall time is at or before the horizon — and we keep one more
         checkpoint of history below it so transactions spanning the
         boundary can still be rolled back. *)
      let rec go = function
        | (_, newer_wall) :: (older, _) :: _ when newer_wall <= horizon -> Some older
        | _ :: rest -> go rest
        | [] -> None
      in
      let cut = go (Log_manager.checkpoint_walls log) in
      match (cut, floor_lsn t) with
      | Some c, Some f -> Some (Lsn.min c f)
      | other, None -> other
      | None, Some _ -> None

let enforce t ~log ~now_us =
  match cutoff t ~log ~now_us with
  | Some lsn when Lsn.(lsn > Log_manager.first_lsn log) ->
      Log_manager.truncate_before log lsn;
      Some lsn
  | _ -> None
