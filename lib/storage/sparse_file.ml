type t = {
  clock : Sim_clock.t;
  media : Media.t;
  stats : Io_stats.t;
  table : (int, Page.t) Hashtbl.t;
}

let create ~clock ~media () =
  { clock; media; stats = Io_stats.create (); table = Hashtbl.create 64 }

let mem t pid = Hashtbl.mem t.table (Page_id.to_int pid)

let read t pid =
  match Hashtbl.find_opt t.table (Page_id.to_int pid) with
  | None -> None
  | Some p ->
      Media.random_read t.media t.clock t.stats Page.page_size;
      Some (Page.copy p)

let write t pid page =
  Media.random_write t.media t.clock t.stats Page.page_size;
  Hashtbl.replace t.table (Page_id.to_int pid) (Page.copy page)

let page_ids t =
  Hashtbl.fold (fun k _ acc -> Page_id.of_int k :: acc) t.table []
  |> List.sort Page_id.compare

let page_count t = Hashtbl.length t.table
let allocated_bytes t = Hashtbl.length t.table * Page.page_size
let drop t = Hashtbl.reset t.table
