(* The log's indexes: per segment, the page chains, the full-page-image
   directory and the control-record directory, and log-wide the
   transaction summaries.  [index_record] and [unindex_record] are the
   only code that changes them, one record at a time, from its header
   peek; the merged views below answer queries across segments, clamped
   at the retention boundary. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Int_tbl = Rw_storage.Int_tbl
open Log_segments

(* Modeled index footprint per entry: the record's two-word directory
   entry, a chain array element, an FPI list cons, a control-directory
   entry (LSN, txn and wall slots plus a kind byte).  Coarse, but it
   moves with the structures it models and is freed exactly when they
   are. *)
let idx_record_bytes = 16
let idx_chain_bytes = 8
let idx_fpi_bytes = 24
let idx_ctl_bytes = 25

(* ---------- per-segment directories ---------- *)

let push_descending table key i =
  match Int_tbl.find table key with
  | l -> l := i :: !l
  | exception Not_found -> Int_tbl.add table key (ref [ i ])

(* A page's chain slice holds record indexes in ascending order (appends
   arrive in LSN order), so [chain_segment] is binary searches through
   [s_lsns] plus a copy per touched segment — no list walk, no per-record
   allocation — and each record it hands out is already located. *)
let chain_push tbl key i =
  match Int_tbl.find tbl key with
  | c ->
      if c.len = Array.length c.arr then
        c.arr <- grow ~floor:8 c.arr ~used:c.len ~need:(c.len + 1) 0;
      c.arr.(c.len) <- i;
      c.len <- c.len + 1
  | exception Not_found ->
      let arr = Array.make 8 0 in
      arr.(0) <- i;
      Int_tbl.add tbl key { arr; len = 1 }

let chain_remove tbl key v =
  match Int_tbl.find_opt tbl key with
  | None -> ()
  | Some c ->
      (* Removals come from the tail drops, which discard newest-first, so
         the target is almost always the last element. *)
      let i = ref (c.len - 1) in
      while !i >= 0 && c.arr.(!i) <> v do
        decr i
      done;
      if !i >= 0 then begin
        Array.blit c.arr (!i + 1) c.arr !i (c.len - !i - 1);
        c.len <- c.len - 1
      end

let ctl_kinds = Log_record.[| K_begin; K_commit; K_abort; K_end; K_checkpoint |]

let ctl_code = function
  | Log_record.K_begin -> 0
  | Log_record.K_commit -> 1
  | Log_record.K_abort -> 2
  | Log_record.K_end -> 3
  | Log_record.K_checkpoint -> 4
  | Log_record.K_page_op _ | Log_record.K_clr _ -> invalid_arg "Log_index.ctl_code: page record"

let begin_code = ctl_code Log_record.K_begin
let commit_code = ctl_code Log_record.K_commit
let end_code = ctl_code Log_record.K_end
let checkpoint_code = ctl_code Log_record.K_checkpoint

let ctl_push d lsn txn code wall ~max_wall ~live =
  if d.c_n = Array.length d.c_lsn then begin
    let cap = capacity ~floor:16 d.c_n (d.c_n + 1) in
    let ints a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 d.c_n;
      b
    in
    let floats a =
      let b = Float.Array.make cap 0.0 in
      Float.Array.blit a 0 b 0 d.c_n;
      b
    in
    d.c_lsn <- ints d.c_lsn;
    d.c_txn <- ints d.c_txn;
    d.c_kind <- Bytes.extend d.c_kind 0 (cap - d.c_n);
    d.c_live <- Bytes.extend d.c_live 0 (cap - d.c_n);
    d.c_max_wall <- floats d.c_max_wall
  end;
  d.c_lsn.(d.c_n) <- lsn;
  d.c_txn.(d.c_n) <- txn;
  Bytes.set_uint8 d.c_kind d.c_n code;
  Float.Array.set d.c_max_wall d.c_n max_wall;
  if code = commit_code && wall < max_wall then Int_tbl.replace d.c_back lsn wall;
  Bytes.set_uint8 d.c_live d.c_n (Bool.to_int live);
  d.c_n <- d.c_n + 1

(* Entry [j]'s own wall time: a commit's or a checkpoint's, 0 for the
   other kinds. *)
let wall_at d j =
  let code = Bytes.get_uint8 d.c_kind j in
  if code = commit_code then
    match Int_tbl.find_opt d.c_back d.c_lsn.(j) with
    | Some wall -> wall
    | None -> Float.Array.get d.c_max_wall j
  else if code = checkpoint_code then Float.Array.get d.c_max_wall j
  else 0.0

(* List the newest entry, a checkpoint that is record [i], in the
   segment's checkpoint list. *)
let ckpt_push d i =
  let k = d.c_ckpts in
  if k = Array.length d.c_ckpt_at then begin
    d.c_ckpt_at <- grow ~floor:4 d.c_ckpt_at ~used:k ~need:(k + 1) 0;
    d.c_ckpt_rec <- grow ~floor:4 d.c_ckpt_rec ~used:k ~need:(k + 1) 0
  end;
  d.c_ckpt_at.(k) <- d.c_n - 1;
  d.c_ckpt_rec.(k) <- i;
  d.c_ckpts <- k + 1

(* Removals come from the tail drops, newest first, so the target is
   almost always the last entry. *)
let ctl_remove d lsn =
  let i = ref (d.c_n - 1) in
  while !i >= 0 && d.c_lsn.(!i) <> lsn do
    decr i
  done;
  if !i >= 0 then begin
    let j = !i and tail = d.c_n - !i - 1 in
    Array.blit d.c_lsn (j + 1) d.c_lsn j tail;
    Array.blit d.c_txn (j + 1) d.c_txn j tail;
    Bytes.blit d.c_kind (j + 1) d.c_kind j tail;
    Bytes.blit d.c_live (j + 1) d.c_live j tail;
    Float.Array.blit d.c_max_wall (j + 1) d.c_max_wall j tail;
    Int_tbl.remove d.c_back lsn;
    d.c_n <- d.c_n - 1;
    (* the checkpoint list drops the entry, if listed, and follows the
       shift of the positions above it *)
    let w = ref 0 in
    for k = 0 to d.c_ckpts - 1 do
      let at = d.c_ckpt_at.(k) in
      if at <> j then begin
        d.c_ckpt_at.(!w) <- (if at > j then at - 1 else at);
        d.c_ckpt_rec.(!w) <- d.c_ckpt_rec.(k);
        incr w
      end
    done;
    d.c_ckpts <- !w
  end

(* The running columns' step over one control record.  A checkpoint
   restarts both, from its own wall time and its active list, read in
   place from record [i] of [seg]; other kinds need no record. *)
let step_running t seg i code txn wall =
  if code = checkpoint_code then begin
    Int_tbl.clear t.ctl_live;
    Log_record.iter_active_bytes seg.s_blob ~pos:(rec_pos seg i) (fun x ->
        Int_tbl.replace t.ctl_live x ());
    t.ctl_max_wall <- wall
  end
  else if code = begin_code then Int_tbl.replace t.ctl_live txn ()
  else if code = commit_code then begin
    Int_tbl.remove t.ctl_live txn;
    if wall > t.ctl_max_wall then t.ctl_max_wall <- wall
  end
  else if code = end_code then Int_tbl.remove t.ctl_live txn

(* After a tail drop: the running state as it stood after the newest
   control record left, replayed from the newest checkpoint in the
   window (a dead prefix's included), or from the oldest entry when no
   checkpoint is left.  The latter is exact only when the window still
   starts at the log's first record, the one case in which a search
   reads columns written before any retained checkpoint. *)
let restore_running t =
  t.ctl_stale <- false;
  Int_tbl.clear t.ctl_live;
  t.ctl_max_wall <- Float.neg_infinity;
  let si = ref (t.seg_hi - 1) in
  while !si >= t.seg_lo && t.segs.(!si).s_ctl.c_ckpts = 0 do
    decr si
  done;
  let from_si, from_j =
    if !si < t.seg_lo then (t.seg_lo, 0)
    else begin
      let s = t.segs.(!si) in
      let d = s.s_ctl in
      let j = d.c_ckpt_at.(d.c_ckpts - 1) in
      step_running t s d.c_ckpt_rec.(d.c_ckpts - 1) checkpoint_code 0 (Float.Array.get d.c_max_wall j);
      (!si, j + 1)
    end
  in
  for si = from_si to t.seg_hi - 1 do
    let s = t.segs.(si) in
    let d = s.s_ctl in
    for j = (if si = from_si then from_j else 0) to d.c_n - 1 do
      step_running t s (-1) (Bytes.get_uint8 d.c_kind j) d.c_txn.(j) (wall_at d j)
    done
  done

(* ---------- transaction summaries ---------- *)

(* Txn write-set summary upkeep from a header peek plus the commit
   record's wall time (the one field the header lacks).  Only a
   transaction's first record (nil [p_prev_txn_lsn]) opens a summary: one
   whose first retained record points further back crossed the retention
   boundary, and a summary of its retained part would understate its
   write set.  [drop_txns_before] applies the same rule to the summaries
   a retention cut strands ([a_first] below the boundary). *)
let structural_op_kind = function
  | Log_record.K_set_header | Log_record.K_format | Log_record.K_preformat
  | Log_record.K_full_image ->
      true
  | Log_record.K_insert_row | Log_record.K_delete_row | Log_record.K_update_row -> false

(* Add [d] (+1 or -1) to the op counts a page record contributes. *)
let count_op acc kind d =
  match kind with
  | Log_record.K_page_op k | Log_record.K_clr k ->
      acc.a_ops <- acc.a_ops + d;
      (match kind with Log_record.K_clr _ -> acc.a_clrs <- acc.a_clrs + d | _ -> ());
      if structural_op_kind k then acc.a_structural <- acc.a_structural + d
  | _ -> ()

(* Most transactions write a few pages, so their membership test is a
   scan of [a_writes_rev]; a table is built only for a transaction that
   has written more pages than this. *)
let page_scan_limit = 16

let rec listed page = function
  | [] -> false
  | (p, _) :: rest -> Page_id.equal p page || listed page rest

let writes_page acc page =
  match acc.a_pages with
  | Some tbl -> Int_tbl.mem tbl (Page_id.to_int page)
  | None -> listed page acc.a_writes_rev

let open_acc t key txn lsn =
  let a =
    {
      a_txn = txn;
      a_first = lsn;
      a_commit = Lsn.nil;
      a_wall = 0.0;
      a_aborted = false;
      a_ops = 0;
      a_clrs = 0;
      a_structural = 0;
      a_writes_rev = [];
      a_npages = 0;
      a_pages = None;
    }
  in
  Int_tbl.add t.txn_index key a;
  a

let note_acc acc pk lsn ~wall =
  match pk.Log_record.p_kind with
  | Log_record.K_commit ->
      acc.a_commit <- lsn;
      acc.a_wall <- wall
  | Log_record.K_abort -> acc.a_aborted <- true
  | (Log_record.K_page_op _ | Log_record.K_clr _) as kind ->
      count_op acc kind 1;
      let page = pk.Log_record.p_page in
      if not (writes_page acc page) then begin
        acc.a_writes_rev <- (page, lsn) :: acc.a_writes_rev;
        acc.a_npages <- acc.a_npages + 1;
        match acc.a_pages with
        | Some tbl -> Int_tbl.replace tbl (Page_id.to_int page) ()
        | None when acc.a_npages > page_scan_limit ->
            let tbl = Int_tbl.create (2 * acc.a_npages) in
            List.iter (fun (p, _) -> Int_tbl.replace tbl (Page_id.to_int p) ()) acc.a_writes_rev;
            acc.a_pages <- Some tbl
        | None -> ()
      end
  | Log_record.K_begin | Log_record.K_end | Log_record.K_checkpoint -> ()

(* Records outside any transaction (nil txn: images, checkpoints) have
   no summary. *)
let note_txn t pk lsn ~wall =
  let txn = pk.Log_record.p_txn in
  if not (Txn_id.is_nil txn) then begin
    let key = Txn_id.to_int txn in
    match Int_tbl.find t.txn_index key with
    | acc -> note_acc acc pk lsn ~wall
    | exception Not_found ->
        if Lsn.is_nil pk.Log_record.p_prev_txn_lsn then
          note_acc (open_acc t key txn lsn) pk lsn ~wall
  end

(* The exact reversal of [note_txn], for a record that is the newest of
   its transaction (tail drops shed records newest first). *)
let unnote_txn t pk lsn =
  let key = Txn_id.to_int pk.Log_record.p_txn in
  match Int_tbl.find_opt t.txn_index key with
  | None -> ()
  | Some acc when Lsn.equal lsn acc.a_first -> Int_tbl.remove t.txn_index key
  | Some acc -> (
      match pk.Log_record.p_kind with
      | Log_record.K_commit ->
          acc.a_commit <- Lsn.nil;
          acc.a_wall <- 0.0
      | Log_record.K_abort -> acc.a_aborted <- false
      | kind -> (
          count_op acc kind (-1);
          match acc.a_writes_rev with
          | (page, first) :: rest when Lsn.equal first lsn -> (
              acc.a_writes_rev <- rest;
              acc.a_npages <- acc.a_npages - 1;
              match acc.a_pages with
              | Some _ when acc.a_npages <= page_scan_limit -> acc.a_pages <- None
              | Some tbl -> Int_tbl.remove tbl (Page_id.to_int page)
              | None -> ())
          | _ -> ()))

(* Summaries whose first record fell below a retention cut at [lsn] can
   no longer be rewound or replayed; drop them wholesale. *)
let drop_txns_before t lsn =
  let dead =
    Int_tbl.fold
      (fun key acc dead -> if Lsn.(acc.a_first < lsn) then key :: dead else dead)
      t.txn_index []
  in
  List.iter (Int_tbl.remove t.txn_index) dead

(* ---------- indexing one record ---------- *)

(* Every index's upkeep for the record [pk] just placed at [lsn] in
   [seg] (its newest record), from its header peek plus, for commits and
   checkpoints, the wall time read in place.  Shared by every ingestion
   path, so none needs a payload decode to keep the indexes true. *)
let index_record t seg pk lsn =
  let wall =
    match pk.Log_record.p_kind with
    | Log_record.K_commit | Log_record.K_checkpoint ->
        Log_record.wall_bytes seg.s_blob ~pos:(Lsn.to_int lsn - seg.s_base)
    | _ -> 0.0
  in
  let add = ref idx_record_bytes in
  let i = seg.s_n - 1 in
  (match pk.Log_record.p_kind with
  | Log_record.K_page_op Log_record.K_full_image ->
      push_descending seg.s_fpi (Page_id.to_int pk.Log_record.p_page) i;
      add := !add + idx_fpi_bytes
  | Log_record.K_page_op _ | Log_record.K_clr _ -> ()
  | k ->
      let code = ctl_code k and txn = Txn_id.to_int pk.Log_record.p_txn in
      step_running t seg i code txn wall;
      ctl_push seg.s_ctl (Lsn.to_int lsn) txn code wall ~max_wall:t.ctl_max_wall
        ~live:(Int_tbl.length t.ctl_live > 0);
      if code = checkpoint_code then ckpt_push seg.s_ctl i;
      add := !add + idx_ctl_bytes);
  if Log_record.is_page_kind pk.Log_record.p_kind then begin
    chain_push seg.s_chains (Page_id.to_int pk.Log_record.p_page) i;
    add := !add + idx_chain_bytes
  end;
  seg.s_index_bytes <- seg.s_index_bytes + !add;
  t.index_bytes <- t.index_bytes + !add;
  note_txn t pk lsn ~wall

(* The exact reversal of [index_record] for record [i] of [seg], the
   newest record still indexed. *)
let unindex_record t seg i =
  let pk = rec_peek seg i in
  let lsn = Lsn.of_int seg.s_lsns.(i) in
  let sub = ref idx_record_bytes in
  (match pk.Log_record.p_kind with
  | Log_record.K_page_op Log_record.K_full_image ->
      (match Int_tbl.find_opt seg.s_fpi (Page_id.to_int pk.Log_record.p_page) with
      | Some l -> l := List.filter (( <> ) i) !l
      | None -> ());
      sub := !sub + idx_fpi_bytes
  | Log_record.K_page_op _ | Log_record.K_clr _ -> ()
  | _ ->
      ctl_remove seg.s_ctl (Lsn.to_int lsn);
      t.ctl_stale <- true;
      sub := !sub + idx_ctl_bytes);
  if Log_record.is_page_kind pk.Log_record.p_kind then begin
    chain_remove seg.s_chains (Page_id.to_int pk.Log_record.p_page) i;
    sub := !sub + idx_chain_bytes
  end;
  seg.s_index_bytes <- seg.s_index_bytes - !sub;
  t.index_bytes <- t.index_bytes - !sub;
  unnote_txn t pk lsn

(* ---------- merged views ---------- *)

(* The directory walk: retained control records from [from] on,
   ascending, until [f] answers [false].  Entries below the retention
   boundary (a straddling segment's dead prefix) are skipped. *)
let iter_controls t ~from f =
  let lo = Lsn.to_int (Lsn.max from t.truncated_below) in
  let si = ref (seg_lower t lo) in
  let go = ref true in
  while !go && !si < t.seg_hi do
    let d = t.segs.(!si).s_ctl in
    let i = ref (lower_bound d.c_lsn d.c_n lo) in
    while !go && !i < d.c_n do
      go :=
        f
          (Lsn.of_int d.c_lsn.(!i))
          ctl_kinds.(Bytes.get_uint8 d.c_kind !i)
          (Txn_id.of_int d.c_txn.(!i))
          (wall_at d !i);
      incr i
    done;
    incr si
  done

(* The retained checkpoints, newest first, as [f seg i lsn wall] ([i]
   the record's index in [seg]), until [f] answers [false].  Only the
   segments' checkpoint lists are visited; a straddling segment's dead
   prefix ends the walk, as every older segment has been dropped. *)
let iter_checkpoints_rev t f =
  let tb = Lsn.to_int t.truncated_below in
  let si = ref (t.seg_hi - 1) and go = ref true in
  while !go && !si >= t.seg_lo do
    let s = t.segs.(!si) in
    let d = s.s_ctl in
    let k = ref (d.c_ckpts - 1) in
    while !go && !k >= 0 do
      let j = d.c_ckpt_at.(!k) in
      go := d.c_lsn.(j) >= tb && f s d.c_ckpt_rec.(!k) d.c_lsn.(j) (Float.Array.get d.c_max_wall j);
      decr k
    done;
    decr si
  done

(* Newest retained checkpoint, for the fallback of [last_checkpoint]
   after a tail drop or a restore. *)
let newest_checkpoint t =
  let res = ref Lsn.nil in
  iter_checkpoints_rev t (fun _ _ lsn _ ->
      res := Lsn.of_int lsn;
      false);
  !res

(* The SplitLSN search over the directory from [from], a checkpoint or
   the log's first record: the first commit or checkpoint whose wall
   time is past [wall_us] (the stop), and the last commit before it.  A
   walk would stop at the first entry whose max-wall column is past
   [wall_us]: the column never decreases up to the next checkpoint, so
   each stretch between checkpoints is one test of its last entry and,
   where that is past, a binary search.  A checkpoint not past
   [wall_us] opens the next stretch.  The last commit is found by
   stepping back from the stop. *)
let split_search t ~from ~wall_us =
  let lo = Lsn.to_int (Lsn.max from t.truncated_below) in
  let si = ref (seg_lower t lo) in
  let p =
    ref (if !si < t.seg_hi then lower_bound t.segs.(!si).s_ctl.c_lsn t.segs.(!si).s_ctl.c_n lo else 0)
  in
  let stop = ref None in
  while Option.is_none !stop && !si < t.seg_hi do
    let d = t.segs.(!si).s_ctl in
    if !p >= d.c_n then begin
      incr si;
      p := 0
    end
    else begin
      (* the stretch [p, q): no checkpoint in it but at [p] *)
      let k = lower_bound d.c_ckpt_at d.c_ckpts (!p + 1) in
      let q = if k < d.c_ckpts then d.c_ckpt_at.(k) else d.c_n in
      if Float.Array.get d.c_max_wall (q - 1) > wall_us then begin
        let a = ref !p and b = ref (q - 1) in
        while !a < !b do
          let mid = (!a + !b) / 2 in
          if Float.Array.get d.c_max_wall mid > wall_us then b := mid else a := mid + 1
        done;
        stop := Some (!si, !a)
      end
      else p := q
    end
  done;
  let si, j =
    match !stop with
    | Some (si, j) -> (ref si, ref (j - 1))
    | None ->
        let si = t.seg_hi - 1 in
        (ref si, ref (if si >= t.seg_lo then t.segs.(si).s_ctl.c_n - 1 else -1))
  in
  let last = ref None and go = ref true in
  while !go && !si >= t.seg_lo do
    let d = t.segs.(!si).s_ctl in
    if !j < 0 then begin
      decr si;
      if !si >= t.seg_lo then j := t.segs.(!si).s_ctl.c_n - 1
    end
    else if d.c_lsn.(!j) < lo then go := false
    else if Bytes.get_uint8 d.c_kind !j = commit_code then begin
      last := Some (Lsn.of_int d.c_lsn.(!j));
      go := false
    end
    else decr j
  done;
  let lsn_of (si, j) = Lsn.of_int t.segs.(si).s_ctl.c_lsn.(j) in
  (!last, Option.map lsn_of !stop)

(* Whether no transaction is in flight just before [upto] for a walk
   that starts at [from] — the record after a checkpoint, or the log's
   first record — holding that checkpoint's active set (or nothing).  It
   holds when no checkpoint lies in [[from, upto)], so the newest one at
   or before the last entry below [upto] is the walk's own, and that
   entry's in-flight set is empty. *)
let none_in_flight t ~from ~upto =
  let lo = Lsn.to_int from and hi = Lsn.to_int upto in
  let checkpoint_between = ref false and si = ref (seg_lower t lo) in
  while (not !checkpoint_between) && !si < t.seg_hi && t.segs.(!si).s_base < hi do
    let d = t.segs.(!si).s_ctl in
    let a = ref 0 and b = ref d.c_ckpts in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if d.c_lsn.(d.c_ckpt_at.(mid)) < lo then a := mid + 1 else b := mid
    done;
    checkpoint_between := !a < d.c_ckpts && d.c_lsn.(d.c_ckpt_at.(!a)) < hi;
    incr si
  done;
  (not !checkpoint_between)
  &&
  let si = ref (min (seg_lower t hi) (t.seg_hi - 1)) and live = ref (-1) in
  while !live < 0 && !si >= t.seg_lo do
    let d = t.segs.(!si).s_ctl in
    let j = lower_bound d.c_lsn d.c_n hi - 1 in
    if j >= 0 then live := Bytes.get_uint8 d.c_live j else decr si
  done;
  !live <= 0

(* The earliest retained image of [page] after [after], located, or no
   record.  Segments are searched oldest first from the one holding
   [after]: the first that holds a qualifying image holds the earliest. *)
let earliest_fpi_after t page ~after =
  let pid = Page_id.to_int page in
  let ai = Lsn.to_int after and tb = Lsn.to_int t.truncated_below in
  let res = ref no_records in
  let si = ref (seg_lower t (ai + 1)) in
  while !res == no_records && !si < t.seg_hi do
    let s = t.segs.(!si) in
    (match Int_tbl.find s.s_fpi pid with
    | l ->
        (* The list is descending; the earliest image still after [after]
           is the last one before the walk crosses it. *)
        let rec go best = function
          | [] -> best
          | i :: rest ->
              let li = s.s_lsns.(i) in
              if li > ai && li >= tb then go i rest else best
        in
        let i = go (-1) !l in
        if i >= 0 then res := { l_lsn = [| s.s_lsns.(i) |]; l_at = [| at !si i |] }
    | exception Not_found -> ());
    incr si
  done;
  !res

(* First position of [c] whose record's LSN is >= [target]. *)
let chain_lower s c target =
  let lo = ref 0 and hi = ref c.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.s_lsns.(c.arr.(mid)) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let chain_segment t page ~from ~down_to =
  let pid = Page_id.to_int page in
  (* Clamp at the retention boundary: a straddling segment keeps its dead
     prefix physically, so the boundary must be enforced here rather than
     by eager pruning.  The slice starts above [dt], so the clamp value is
     one below the first retained LSN. *)
  let dt = max (Lsn.to_int down_to) (Lsn.to_int t.truncated_below - 1) in
  let from_i = Lsn.to_int from in
  if from_i <= dt then no_records
  else begin
    (* (window slot, chain, first position, count), newest first *)
    let slices = ref [] and total = ref 0 in
    let si = ref (seg_lower t (dt + 1)) in
    while !si < t.seg_hi && t.segs.(!si).s_base <= from_i do
      let s = t.segs.(!si) in
      (match Int_tbl.find s.s_chains pid with
      | c ->
          (* the chain's records with LSN in (dt, from]; only a segment
             that straddles a bound needs a search *)
          let lo = if s.s_base > dt then 0 else chain_lower s c (dt + 1) in
          let hi = if s.s_end <= from_i + 1 then c.len else chain_lower s c (from_i + 1) in
          if hi > lo then begin
            slices := (!si, c.arr, lo, hi - lo) :: !slices;
            total := !total + (hi - lo)
          end
      | exception Not_found -> ());
      incr si
    done;
    if !total = 0 then no_records
    else begin
      let l_lsn = Array.make !total 0 and l_at = Array.make !total 0 in
      let pos = ref !total in
      List.iter
        (fun (si, arr, lo, n) ->
          pos := !pos - n;
          let lsns = t.segs.(si).s_lsns and slot = at si 0 in
          for j = 0 to n - 1 do
            let i = arr.(lo + j) in
            l_lsn.(!pos + j) <- lsns.(i);
            l_at.(!pos + j) <- slot lor i
          done)
        !slices;
      { l_lsn; l_at }
    end
  end

(* Ascending page ids, each once, whatever order the chain tables
   iterate in: each id marks its byte in a bitmap over the page ids, and
   one pass over the bitmap lists them in order, with no sort. *)
let pages_changed_since t ~since =
  let seen = ref (Bytes.make 256 '\000') in
  let si = Lsn.to_int since and tb = Lsn.to_int t.truncated_below in
  for k = seg_lower t (si + 1) to t.seg_hi - 1 do
    let s = t.segs.(k) in
    Int_tbl.iter
      (fun page c ->
        if c.len > 0 then begin
          let newest = s.s_lsns.(c.arr.(c.len - 1)) in
          if newest > si && newest >= tb then begin
            if page >= Bytes.length !seen then begin
              let wider = Bytes.make (capacity ~floor:256 (Bytes.length !seen) (page + 1)) '\000' in
              Bytes.blit !seen 0 wider 0 (Bytes.length !seen);
              seen := wider
            end;
            Bytes.set !seen page '\001'
          end
        end)
      s.s_chains
  done;
  let seen = !seen and acc = ref [] in
  for page = Bytes.length seen - 1 downto 0 do
    if Bytes.get seen page <> '\000' then acc := Page_id.of_int page :: !acc
  done;
  !acc

type txn_summary = {
  ts_txn : Txn_id.t;
  ts_first_lsn : Lsn.t;
  ts_commit_lsn : Lsn.t;
  ts_commit_wall_us : float;
  ts_ops : int;
  ts_has_clr : bool;
  ts_structural : bool;
  ts_writes : (Page_id.t * Lsn.t) list;
}

let committed a = (not (Lsn.is_nil a.a_commit)) && not a.a_aborted

let summary_of a =
  {
    ts_txn = a.a_txn;
    ts_first_lsn = a.a_first;
    ts_commit_lsn = a.a_commit;
    ts_commit_wall_us = a.a_wall;
    ts_ops = a.a_ops;
    ts_has_clr = a.a_clrs > 0;
    ts_structural = a.a_structural > 0;
    ts_writes = List.rev a.a_writes_rev;
  }

let txn_summaries t =
  Int_tbl.fold (fun _ a acc -> if committed a then summary_of a :: acc else acc) t.txn_index []
  |> List.sort (fun x y -> Lsn.compare x.ts_commit_lsn y.ts_commit_lsn)

let txn_resolution t txn =
  match Int_tbl.find_opt t.txn_index (Txn_id.to_int txn) with
  | None -> `Unknown
  | Some a ->
      if a.a_aborted then `Aborted else if committed a then `Committed else `Active
