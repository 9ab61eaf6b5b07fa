module Schema = Rw_catalog.Schema
module Btree = Rw_access.Btree
module Codec = Rw_wal.Codec

(* Key layout: 48-bit value-hash prefix, 16-bit bucket.  All buckets of one
   value are contiguous, so lookups are a short range scan. *)
let bucket_bits = 16
let max_bucket = 0xFFFF
let max_postings_per_bucket = 100

let fnv64 (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let prefix_of_value (v : Row.value) =
  let hash =
    match v with
    | Row.Int n ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 n;
        fnv64 (Bytes.unsafe_to_string b)
    | Row.Text s -> fnv64 s
  in
  (* Keep 48 bits and stay positive so key arithmetic is monotonic. *)
  Int64.logand hash 0x7FFF_FFFF_FFFFL

let lo_key prefix = Int64.shift_left prefix bucket_bits
let hi_key prefix = Int64.logor (lo_key prefix) (Int64.of_int max_bucket)
let bucket_key prefix bucket = Int64.logor (lo_key prefix) (Int64.of_int bucket)

let decode_postings payload =
  let d = Codec.decoder payload in
  let n = Codec.get_u16 d in
  List.init n (fun _ -> Codec.get_i64 d)

let encode_postings pks =
  let e = Codec.encoder () in
  Codec.u16 e (List.length pks);
  List.iter (Codec.i64 e) pks;
  Codec.to_string e

let tree (ix : Schema.index) = Btree.of_root ix.Schema.index_root

(* Visit every bucket of [value]'s prefix: [(bucket, postings)]. *)
let buckets ctx ix ~value =
  let prefix = prefix_of_value value in
  let acc = ref [] in
  Btree.range ctx (tree ix) ~lo:(lo_key prefix) ~hi:(hi_key prefix)
    ~row:(fun key page ~pos ~len ->
      ( Int64.to_int (Int64.logand key (Int64.of_int max_bucket)),
        decode_postings (Bytes.sub_string page pos len) ))
    ~f:(fun b -> acc := b :: !acc);
  List.rev !acc

let add ctx alloc txn ix ~value ~pk =
  let prefix = prefix_of_value value in
  let existing = buckets ctx ix ~value in
  match List.find_opt (fun (_, pks) -> List.length pks < max_postings_per_bucket) existing with
  | Some (bucket, pks) ->
      Btree.update ctx alloc txn (tree ix) ~key:(bucket_key prefix bucket)
        ~payload:(encode_postings (pk :: pks))
  | None ->
      let bucket =
        match existing with
        | [] -> 0
        | _ -> 1 + List.fold_left (fun acc (b, _) -> max acc b) 0 existing
      in
      if bucket > max_bucket then
        invalid_arg "Index.add: too many duplicates for one value";
      Btree.insert ctx alloc txn (tree ix) ~key:(bucket_key prefix bucket)
        ~payload:(encode_postings [ pk ])

let remove ctx alloc txn ix ~value ~pk =
  let prefix = prefix_of_value value in
  let rec go = function
    | [] -> raise Not_found
    | (bucket, pks) :: rest ->
        if List.mem pk pks then begin
          match List.filter (fun p -> p <> pk) pks with
          | [] -> Btree.delete ctx txn (tree ix) ~key:(bucket_key prefix bucket)
          | remaining ->
              Btree.update ctx alloc txn (tree ix) ~key:(bucket_key prefix bucket)
                ~payload:(encode_postings remaining)
        end
        else go rest
  in
  go (buckets ctx ix ~value)

let lookup ctx ix ~value = List.concat_map snd (buckets ctx ix ~value)

let entry_count ctx ix =
  let n = ref 0 in
  Btree.iter ctx (tree ix) ~f:(fun _ payload -> n := !n + List.length (decode_postings payload));
  !n
