module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Log_record = Rw_wal.Log_record

type t = { root : Page_id.t }

exception Duplicate_key of int64

let max_payload = 1024

let of_root root = { root }
let root t = t.root

let create ctx alloc txn =
  { root = Alloc_map.allocate alloc ctx txn ~typ:Page.Btree ~level:0 }

let modify = Access_ctx.modify
let read = Access_ctx.read

(* Routing: the child whose subtree covers [key].  Internal rows are
   (separator, child) with the first row acting as -infinity. *)
let route page key =
  match Slotted_page.find_key page key with
  | Either.Left i -> i
  | Either.Right i -> max 0 (i - 1)

let child_at page i = Slotted_page.child_at page ~at:i

(* Descend to the leaf covering [key]. *)
let descend ctx t key =
  let rec go pid =
    let child =
      read ctx pid (fun page ->
          if Page.level page = 0 then Page_id.nil else child_at page (route page key))
    in
    if Page_id.is_nil child then pid else go child
  in
  go t.root

(* [key] is [row]'s key. *)
let insert_sorted ctx txn pid ~key row =
  let slot =
    read ctx pid (fun page ->
        match Slotted_page.find_key page key with
        | Either.Left _ -> raise (Duplicate_key key)
        | Either.Right i -> i)
  in
  modify ctx txn pid (Log_record.Insert_row { slot; row })

let set_link ctx txn pid field target =
  let before = read ctx pid (fun page -> Log_record.get_header page field) in
  modify ctx txn pid
    (Log_record.Set_header { field; before; after = Log_record.link_value target })

(* Move rows [m..n-1] of [src] to a fresh sibling: inserts into the sibling
   followed by deletes (with row images) from the source — exactly the SMO
   logging shape of paper §4.2(3). *)
let split_page ctx alloc txn pid =
  let level, rows, used =
    read ctx pid (fun page ->
        ( Page.level page,
          Array.init (Slotted_page.count page) (fun i -> Slotted_page.get page ~at:i),
          Slotted_page.used_bytes page ))
  in
  let n = Array.length rows in
  if n < 2 then failwith "Btree.split_page: page too small to split";
  (* First index of the moved suffix: accumulate sizes from the end until
     roughly half the used bytes move. *)
  let m = ref n in
  let moved = ref 0 in
  while !m > 1 && !moved < used / 2 do
    decr m;
    moved := !moved + String.length rows.(!m) + 4
  done;
  let m = !m in
  let right = Alloc_map.allocate alloc ctx txn ~typ:Page.Btree ~level in
  for j = m to n - 1 do
    modify ctx txn right (Log_record.Insert_row { slot = j - m; row = rows.(j) })
  done;
  for j = n - 1 downto m do
    modify ctx txn pid (Log_record.Delete_row { slot = j; row = rows.(j) })
  done;
  (* Leaf pages form a doubly linked list for range scans. *)
  if level = 0 then begin
    let old_next = read ctx pid (fun page -> Page.next_page page) in
    set_link ctx txn right Log_record.Next_page old_next;
    set_link ctx txn right Log_record.Prev_page pid;
    if not (Page_id.is_nil old_next) then set_link ctx txn old_next Log_record.Prev_page right;
    set_link ctx txn pid Log_record.Next_page right
  end;
  (right, Rowfmt.row_key rows.(m))

(* Empty the root into a fresh child and raise the root one level: the root
   page id never changes, so the catalog stays untouched. *)
let grow_tree ctx alloc txn t =
  let level, rows =
    read ctx t.root (fun page ->
        (Page.level page, Array.init (Slotted_page.count page) (fun i -> Slotted_page.get page ~at:i)))
  in
  let child = Alloc_map.allocate alloc ctx txn ~typ:Page.Btree ~level in
  Array.iteri
    (fun j row -> modify ctx txn child (Log_record.Insert_row { slot = j; row })) rows;
  for j = Array.length rows - 1 downto 0 do
    modify ctx txn t.root (Log_record.Delete_row { slot = j; row = rows.(j) })
  done;
  modify ctx txn t.root
    (Log_record.Set_header
       { field = Log_record.Level; before = Int64.of_int level; after = Int64.of_int (level + 1) });
  (* The leftmost child's entry carries a true -infinity sentinel key so
     that every separator inserted later sorts after it; using a real key
     here would let a smaller separator sort before the leftmost entry and
     corrupt routing. *)
  modify ctx txn t.root
    (Log_record.Insert_row { slot = 0; row = Rowfmt.internal_row ~key:Int64.min_int ~child });
  child

(* Space an internal page must keep free to absorb one more separator
   entry (16-byte row; the slot itself is accounted by [free_space]). *)
let internal_entry_size = 16

(* Top-down preemptive splitting: while descending towards the leaf, any
   child without room for what will be inserted into it is split *before*
   we enter it — at that moment its parent is guaranteed to have room for
   the separator, so splits never cascade upward through stale paths. *)
let insert ctx alloc txn t ~key ~payload =
  if String.length payload > max_payload then invalid_arg "Btree.insert: payload too large";
  if key = Int64.min_int then invalid_arg "Btree.insert: Int64.min_int is reserved";
  let row = Rowfmt.leaf_row ~key ~payload in
  let requirement level = if level = 0 then String.length row else internal_entry_size in
  let room pid =
    read ctx pid (fun page -> (Page.level page, Slotted_page.free_space page))
  in
  (* The root grows the tree instead of splitting. *)
  let rec prepare_root () =
    let level, space = room t.root in
    if space < requirement level then begin
      ignore (grow_tree ctx alloc txn t);
      prepare_root ()
    end
  in
  prepare_root ();
  let rec go pid =
    let level = read ctx pid (fun page -> Page.level page) in
    if level = 0 then insert_sorted ctx txn pid ~key row
    else begin
      let child = read ctx pid (fun page -> child_at page (route page key)) in
      let clevel, cspace = room child in
      if cspace < requirement clevel then begin
        let right, sep = split_page ctx alloc txn child in
        insert_sorted ctx txn pid ~key:sep (Rowfmt.internal_row ~key:sep ~child:right);
        go pid (* re-route: the key may now belong to the new sibling *)
      end
      else go child
    end
  in
  go t.root

let locate ctx t key =
  let leaf = descend ctx t key in
  read ctx leaf (fun page ->
      match Slotted_page.find_key page key with
      | Either.Left i -> Some (leaf, i, Slotted_page.get page ~at:i)
      | Either.Right _ -> None)

let find_with ctx t key ~f =
  let leaf = descend ctx t key in
  read ctx leaf (fun page ->
      match Slotted_page.find_key page key with
      | Either.Left at ->
          let len = Slotted_page.payload_len page ~at in
          Some (f page ~pos:(Slotted_page.payload_pos page ~at) ~len)
      | Either.Right _ -> None)

let find ctx t key = find_with ctx t key ~f:(fun page ~pos ~len -> Bytes.sub_string page pos len)

let delete ctx txn t ~key =
  match locate ctx t key with
  | Some (leaf, slot, row) -> modify ctx txn leaf (Log_record.Delete_row { slot; row })
  | None -> raise Not_found

let update ctx alloc txn t ~key ~payload =
  if String.length payload > max_payload then invalid_arg "Btree.update: payload too large";
  match locate ctx t key with
  | None -> raise Not_found
  | Some (leaf, slot, before) ->
      let after = Rowfmt.leaf_row ~key ~payload in
      let growth = String.length after - String.length before in
      let fits = read ctx leaf (fun page -> Slotted_page.free_space page + 4 >= growth) in
      if fits then modify ctx txn leaf (Log_record.Update_row { slot; before; after })
      else begin
        (* No room to grow in place: delete + re-insert (may split). *)
        modify ctx txn leaf (Log_record.Delete_row { slot; row = before });
        insert ctx alloc txn t ~key ~payload
      end

let leftmost_leaf ?(seen = fun _ _ -> ()) ctx t =
  let rec go pid =
    match
      read ctx pid (fun page ->
          seen pid page;
          if Page.level page = 0 then None else Some (child_at page 0))
    with
    | None -> pid
    | Some child -> go child
  in
  go t.root

(* The leaf covering [lo] is read from [lo]'s slot on, and every later
   leaf from its first; the rows stop at the first key above [hi].  The
   walk goes on to the next leaf while the current one is empty or ends
   at or below [hi], so it reads the pages a filter over whole leaves
   would.  [f] runs once the leaf's latch is released: it may read other
   pages, even this one. *)
let range ctx t ~lo ~hi ~row ~f =
  let leaf = descend ctx t lo in
  let rec walk pid ~from_lo =
    if not (Page_id.is_nil pid) then begin
      let rows, next =
        read ctx pid (fun page ->
            let n = Slotted_page.count page in
            let rec rows at acc =
              if at = n then List.rev acc
              else
                let k = Slotted_page.key_at page ~at in
                if k > hi then List.rev acc
                else
                  let len = Slotted_page.payload_len page ~at in
                  rows (at + 1) (row k page ~pos:(Slotted_page.payload_pos page ~at) ~len :: acc)
            in
            let first =
              if not from_lo then 0
              else match Slotted_page.find_key page lo with Either.Left i | Either.Right i -> i
            in
            let continue = n = 0 || Slotted_page.key_at page ~at:(n - 1) <= hi in
            (rows first [], if continue then Page.next_page page else Page_id.nil))
      in
      List.iter f rows;
      walk next ~from_lo:false
    end
  in
  walk leaf ~from_lo:true

let leaf_rows page =
  List.init (Slotted_page.count page) (fun at ->
      (Slotted_page.key_at page ~at, Slotted_page.payload_at page ~at))

let iter_leaves ?(seen = fun _ _ -> ()) ctx t ~leaf ~f =
  let rec walk pid =
    if not (Page_id.is_nil pid) then begin
      let v, next =
        read ctx pid (fun page ->
            seen pid page;
            (leaf pid page, Page.next_page page))
      in
      f v;
      walk next
    end
  in
  walk (leftmost_leaf ~seen ctx t)

let iter ctx t ~f =
  iter_leaves ctx t ~leaf:(fun _ page -> leaf_rows page) ~f:(List.iter (fun (k, v) -> f k v))

let to_list ctx t =
  let acc = ref [] in
  iter ctx t ~f:(fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let count ctx t =
  let n = ref 0 in
  iter ctx t ~f:(fun _ _ -> incr n);
  !n

let height ctx t = read ctx t.root (fun page -> Page.level page + 1)

let pages ctx t =
  let rec collect pid acc =
    let children =
      read ctx pid (fun page ->
          if Page.level page = 0 then []
          else Slotted_page.fold page ~init:[] ~f:(fun acc i _ -> child_at page i :: acc))
    in
    List.fold_left (fun acc c -> collect c acc) (pid :: acc) children
  in
  List.sort Page_id.compare (collect t.root [])

let drop ctx alloc txn t =
  List.iter (fun pid -> Alloc_map.free alloc ctx txn pid) (pages ctx t)

(* Structural invariant checker (tests): key order within pages, separator
   bounds, uniform leaf level, consistent sibling links. *)
let check ctx t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec walk pid ~lo ~hi ~expected_level =
    read ctx pid (fun page ->
        let level = Page.level page in
        (match expected_level with
        | Some l when l <> level -> fail "page %d: level %d, expected %d" (Page_id.to_int pid) level l
        | _ -> ());
        let n = Slotted_page.count page in
        for i = 0 to n - 2 do
          if Slotted_page.key_at page ~at:i >= Slotted_page.key_at page ~at:(i + 1) then
            fail "page %d: keys out of order at slot %d" (Page_id.to_int pid) i
        done;
        if n > 0 then begin
          (match lo with
          | Some l when Slotted_page.key_at page ~at:0 < l ->
              (* The first separator of an internal page is a -infinity
                 sentinel; only enforce the bound on leaves. *)
              if level = 0 then fail "page %d: key below lower bound" (Page_id.to_int pid)
          | _ -> ());
          match hi with
          | Some h when Slotted_page.key_at page ~at:(n - 1) >= h ->
              fail "page %d: key above upper bound" (Page_id.to_int pid)
          | _ -> ()
        end;
        if level > 0 then begin
          if n = 0 then fail "page %d: empty internal page" (Page_id.to_int pid);
          for i = 0 to n - 1 do
            let sep = Slotted_page.key_at page ~at:i in
            let lo' = if i = 0 then lo else Some sep in
            let hi' = if i = n - 1 then hi else Some (Slotted_page.key_at page ~at:(i + 1)) in
            walk (child_at page i) ~lo:lo' ~hi:hi' ~expected_level:(Some (level - 1))
          done
        end)
  in
  walk t.root ~lo:None ~hi:None ~expected_level:None;
  (* Sibling chain visits exactly the keys in order. *)
  let prev = ref Int64.min_int in
  let first = ref true in
  iter ctx t ~f:(fun k _ ->
      if (not !first) && k <= !prev then fail "leaf chain: keys not strictly increasing at %Ld" k;
      first := false;
      prev := k)
