exception Page_full

let slot_base = Page.header_size
let slot_size = 4
let max_record_size = Page.page_size - Page.header_size - slot_size

let slot_off i = slot_base + (slot_size * i)
let slot_offset p i = Bytes.get_uint16_le p (slot_off i)
let slot_length p i = Bytes.get_uint16_le p (slot_off i + 2)

let set_slot p i ~offset ~length =
  Bytes.set_uint16_le p (slot_off i) offset;
  Bytes.set_uint16_le p (slot_off i + 2) length

let count = Page.slot_count

let slots_end p = slot_base + (slot_size * count p)

let contiguous_free p = Page.data_low p - slots_end p

let free_space p =
  let f = contiguous_free p + Page.garbage p - slot_size in
  if f < 0 then 0 else f

let used_bytes p = (slot_size * count p) + (Page.page_size - Page.data_low p) - Page.garbage p

let check_index p ~at ~for_insert =
  let n = count p in
  let hi = if for_insert then n else n - 1 in
  if at < 0 || at > hi then
    invalid_arg
      (Printf.sprintf "Slotted_page: index %d out of bounds (count %d)" at n)

(* Compaction scratch: one reused page-sized buffer instead of one
   allocation per live record.  One per domain: pool workers undo records
   on private pages concurrently, and a shared buffer would let one
   domain's snapshot overwrite another's mid-compaction. *)
let compact_scratch = Domain.DLS.new_key (fun () -> Bytes.create Page.page_size)

let compact p =
  let n = count p in
  let compact_scratch = Domain.DLS.get compact_scratch in
  (* Snapshot the page, then lay the live records back down from the page
     end, reading from the unmodified copy. *)
  Bytes.blit p 0 compact_scratch 0 Page.page_size;
  let low = ref Page.page_size in
  for i = 0 to n - 1 do
    let off = slot_offset compact_scratch i and len = slot_length compact_scratch i in
    low := !low - len;
    Bytes.blit compact_scratch off p !low len;
    set_slot p i ~offset:!low ~length:len
  done;
  Page.set_data_low p !low;
  Page.set_garbage p 0

let alloc_data p len =
  if contiguous_free p < len then compact p;
  let low = Page.data_low p - len in
  Page.set_data_low p low;
  low

let insert_sub p ~at src ~pos ~len =
  check_index p ~at ~for_insert:true;
  if len > max_record_size then invalid_arg "Slotted_page.insert: record too large";
  if free_space p < len then raise Page_full;
  let n = count p in
  (* Make room in the slot array first so compaction sees a consistent
     count; shift existing slots at..n-1 up by one. *)
  if contiguous_free p < slot_size then compact p;
  if contiguous_free p < slot_size then raise Page_full;
  Bytes.blit p (slot_off at) p (slot_off (at + 1)) (slot_size * (n - at));
  Page.set_slot_count p (n + 1);
  set_slot p at ~offset:0 ~length:0;
  let off = alloc_data p len in
  Bytes.blit src pos p off len;
  set_slot p at ~offset:off ~length:len

let insert p ~at data =
  insert_sub p ~at (Bytes.unsafe_of_string data) ~pos:0 ~len:(String.length data)

let delete p ~at =
  check_index p ~at ~for_insert:false;
  let n = count p in
  Page.set_garbage p (Page.garbage p + slot_length p at);
  Bytes.blit p (slot_off (at + 1)) p (slot_off at) (slot_size * (n - at - 1));
  Page.set_slot_count p (n - 1)

let get p ~at =
  check_index p ~at ~for_insert:false;
  Bytes.sub_string p (slot_offset p at) (slot_length p at)

let set_sub p ~at src ~pos ~len =
  check_index p ~at ~for_insert:false;
  if len > max_record_size then invalid_arg "Slotted_page.set: record too large";
  let old_len = slot_length p at in
  if len <= old_len then begin
    Bytes.blit src pos p (slot_offset p at) len;
    set_slot p at ~offset:(slot_offset p at) ~length:len;
    Page.set_garbage p (Page.garbage p + (old_len - len))
  end
  else begin
    if free_space p + slot_size < len - old_len then raise Page_full;
    (* Retire the old record before (possibly) compacting. *)
    Page.set_garbage p (Page.garbage p + old_len);
    set_slot p at ~offset:0 ~length:0;
    let off = alloc_data p len in
    Bytes.blit src pos p off len;
    set_slot p at ~offset:off ~length:len
  end

let set p ~at data = set_sub p ~at (Bytes.unsafe_of_string data) ~pos:0 ~len:(String.length data)

let iter p f =
  for i = 0 to count p - 1 do
    f i (get p ~at:i)
  done

let fold p ~init ~f =
  let acc = ref init in
  for i = 0 to count p - 1 do
    acc := f !acc i (get p ~at:i)
  done;
  !acc

let key_at p ~at =
  check_index p ~at ~for_insert:false;
  Bytes.get_int64_le p (slot_offset p at)

(* Each probe reads and compares its key in place: the key never leaves
   this function, so it is never boxed, and the loop builds no closure. *)
let find_key p key =
  let lo = ref 0 and hi = ref (count p) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k = Bytes.get_int64_le p (slot_offset p mid) in
    if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then Either.Left !found else Either.Right !lo

let child_at p ~at =
  check_index p ~at ~for_insert:false;
  if slot_length p at <> 16 then invalid_arg "Slotted_page.child_at: not an internal row";
  Page_id.of_int (Int64.to_int (Bytes.get_int64_le p (slot_offset p at + 8)))

let payload_at p ~at =
  check_index p ~at ~for_insert:false;
  let len = slot_length p at in
  if len < 8 then invalid_arg "Slotted_page.payload_at: short row";
  Bytes.sub_string p (slot_offset p at + 8) (len - 8)
