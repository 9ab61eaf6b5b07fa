type t = {
  clock : Sim_clock.t;
  media : Media.t;
  stats : Io_stats.t;
  table : Page.t Int_tbl.t; (* page id -> stored image *)
}

let create ~clock ~media () =
  { clock; media; stats = Io_stats.create (); table = Int_tbl.create 64 }

let mem t pid = Int_tbl.mem t.table (Page_id.to_int pid)

let read t pid =
  match Int_tbl.find_opt t.table (Page_id.to_int pid) with
  | None -> None
  | Some p ->
      Media.random_read t.media t.clock t.stats Page.page_size;
      Some (Page.copy p)

let write t pid page =
  Media.random_write t.media t.clock t.stats Page.page_size;
  let key = Page_id.to_int pid in
  match Int_tbl.find_opt t.table key with
  | Some img -> Bytes.blit page 0 img 0 Page.page_size
  | None -> Int_tbl.replace t.table key (Page.copy page)

let page_ids t =
  Int_tbl.fold (fun k _ acc -> Page_id.of_int k :: acc) t.table []
  |> List.sort Page_id.compare

let page_count t = Int_tbl.length t.table
let allocated_bytes t = Int_tbl.length t.table * Page.page_size
let drop t =
  Int_tbl.iter (fun _ p -> Page.release p) t.table;
  Int_tbl.reset t.table
