exception Corrupt_page of Page_id.t
exception Io_error of { page : Page_id.t; write : bool }

type t = {
  clock : Sim_clock.t;
  media : Media.t;
  stats : Io_stats.t;
  mutable pages : Page.t option array;
  mutable page_count : int;
  mutable fault_plan : Fault_plan.t option;
  torn_pending : (int, bytes) Hashtbl.t;
      (* page -> the image the platter would hold if the system crashed
         now: a sector-aligned prefix of the latest write spliced onto the
         previous content.  Cleared by the next clean write of the page,
         applied wholesale by [apply_crash]. *)
}

let create ~clock ~media ?fault_plan () =
  {
    clock;
    media;
    stats = Io_stats.create ();
    pages = Array.make 64 None;
    page_count = 0;
    fault_plan;
    torn_pending = Hashtbl.create 16;
  }

let clock t = t.clock
let media t = t.media
let stats t = t.stats
let page_count t = t.page_count
let fault_plan t = t.fault_plan
let set_fault_plan t plan = t.fault_plan <- plan
let extend t n = if n > t.page_count then t.page_count <- n

let has_page t pid =
  let i = Page_id.to_int pid in
  i < Array.length t.pages && t.pages.(i) <> None

let written_pages t =
  let n = ref 0 in
  Array.iter (function Some _ -> incr n | None -> ()) t.pages;
  !n

let written_page_ids t =
  let ids = ref [] in
  for i = Array.length t.pages - 1 downto 0 do
    if t.pages.(i) <> None then ids := Page_id.of_int i :: !ids
  done;
  !ids

let ensure_capacity t n =
  if n > Array.length t.pages then begin
    let cap = ref (Array.length t.pages) in
    while !cap < n do
      cap := !cap * 2
    done;
    let pages = Array.make !cap None in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end

let fetch t pid =
  let i = Page_id.to_int pid in
  if i < Array.length t.pages then
    match t.pages.(i) with
    | Some p -> Page.copy p
    | None -> Page.create ~id:pid ~typ:Page.Free
  else Page.create ~id:pid ~typ:Page.Free

(* A write copies into the page's stored image (a fresh copy the first
   time): the caller keeps its buffer, and the disk allocates nothing. *)
let store t pid page =
  let i = Page_id.to_int pid in
  ensure_capacity t (i + 1);
  (match t.pages.(i) with
  | Some img -> Bytes.blit page 0 img 0 Page.page_size
  | None -> t.pages.(i) <- Some (Page.copy page));
  if i + 1 > t.page_count then t.page_count <- i + 1

(* --- fault injection --- *)

let rot_stored t plan pid =
  (* Media decay: flip one bit of the stored image.  The flip is persistent,
     so it stays detectable (and repairable) on every subsequent read until
     a clean write replaces the page. *)
  let i = Page_id.to_int pid in
  if i < Array.length t.pages then
    match t.pages.(i) with
    | Some p ->
        let off, bit =
          Fault_plan.bit_rot_offset plan ~header_size:Page.header_size ~page_size:Page.page_size
        in
        Bytes.set p off (Char.chr (Char.code (Bytes.get p off) lxor (1 lsl bit)));
        t.stats.Io_stats.faults_injected <- t.stats.Io_stats.faults_injected + 1
    | None -> ()

let consult_read t pid =
  match t.fault_plan with
  | None -> ()
  | Some plan -> (
      match Fault_plan.on_read plan with
      | Fault_plan.Read_ok -> ()
      | Fault_plan.Read_bit_rot -> rot_stored t plan pid
      | Fault_plan.Read_transient ->
          t.stats.Io_stats.faults_injected <- t.stats.Io_stats.faults_injected + 1;
          raise (Io_error { page = pid; write = false }))

let consult_write t pid page =
  match t.fault_plan with
  | None -> ()
  | Some plan -> (
      match Fault_plan.on_write plan with
      | Fault_plan.Write_ok -> Hashtbl.remove t.torn_pending (Page_id.to_int pid)
      | Fault_plan.Write_torn_on_crash ->
          (* The write is acknowledged (the OS buffered it) but only a
             sector prefix would survive a crash before the next rewrite. *)
          let cut = Fault_plan.torn_cut plan ~page_size:Page.page_size in
          let torn = fetch t pid in
          Bytes.blit page 0 torn 0 cut;
          Hashtbl.replace t.torn_pending (Page_id.to_int pid) torn
      | Fault_plan.Write_transient ->
          t.stats.Io_stats.faults_injected <- t.stats.Io_stats.faults_injected + 1;
          raise (Io_error { page = pid; write = true }))

let apply_crash t =
  let torn = Hashtbl.fold (fun i img acc -> (i, img) :: acc) t.torn_pending [] in
  Hashtbl.reset t.torn_pending;
  List.iter
    (fun (i, img) ->
      Option.iter Page.release t.pages.(i);
      t.pages.(i) <- Some img;
      t.stats.Io_stats.faults_injected <- t.stats.Io_stats.faults_injected + 1)
    torn;
  List.length torn

(* --- priced I/O --- *)

let read_page t pid =
  Media.random_read t.media t.clock t.stats Page.page_size;
  consult_read t pid;
  fetch t pid

let write_page t pid page =
  Media.random_write t.media t.clock t.stats Page.page_size;
  consult_write t pid page;
  store t pid page

let write_page_seq t pid page =
  Media.seq_write t.media t.clock t.stats Page.page_size;
  consult_write t pid page;
  store t pid page

let read_page_nocost t pid = fetch t pid
let write_page_nocost t pid page = store t pid page

(* --- bounded retry with simulated backoff --- *)

let max_attempts = 4
let backoff_base_us = 200.0

let with_retries t op =
  let rec go attempt backoff_us =
    match op () with
    | v -> v
    | exception Io_error _ when attempt < max_attempts ->
        t.stats.Io_stats.io_retries <- t.stats.Io_stats.io_retries + 1;
        Sim_clock.advance_us t.clock backoff_us;
        go (attempt + 1) (2.0 *. backoff_us)
  in
  go 1 backoff_base_us

let read_page_retrying t pid = with_retries t (fun () -> read_page t pid)

let read_page_checked t pid =
  let p = read_page_retrying t pid in
  if not (Page.verify p) then begin
    Page.release p;
    t.stats.Io_stats.corruptions_detected <- t.stats.Io_stats.corruptions_detected + 1;
    raise (Corrupt_page pid)
  end;
  p
let write_page_retrying t pid page = with_retries t (fun () -> write_page t pid page)
let write_page_seq_retrying t pid page = with_retries t (fun () -> write_page_seq t pid page)

(* --- test / corruption helpers --- *)

let corrupt_stored t pid =
  let i = Page_id.to_int pid in
  if i < Array.length t.pages then
    match t.pages.(i) with
    | Some p ->
        let off = Page.header_size in
        Bytes.set p off (Char.chr (Char.code (Bytes.get p off) lxor 1))
    | None -> ()

let verify_checksums t =
  let ok = ref true in
  for i = 0 to t.page_count - 1 do
    match t.pages.(i) with
    | Some p -> if not (Page.verify p) then ok := false
    | None -> ()
  done;
  !ok
