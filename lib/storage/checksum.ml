(* Unaligned 16-bit load; callers validate bounds once up front so the hot
   loop is free of per-byte checks. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* All arithmetic is on plain [int]s (the CRC state fits in 32 bits on a
   64-bit host): the previous bytewise kernel spent most of its time boxing
   intermediate [Int32] values, one allocation per input byte. *)
let poly = 0xedb88320

(* Slicing-by-8 tables, flat 8*256 array; entry [k*256 + n] advances the CRC
   of byte value [n] past [k] further zero bytes.  Built at start-up, not
   lazily: every domain reads them, and forcing one [Lazy.t] from two
   domains at once raises. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* --- GF(2) operators over CRC state (zlib's combine machinery) ---

   A matrix is 32 column vectors, each an [int] holding 32 bits; multiplying
   a CRC by the matrix advances it past a block of zero bytes without
   touching any data. *)

let gf2_times mat vec =
  let sum = ref 0 in
  let vec = ref vec in
  let i = ref 0 in
  while !vec <> 0 do
    if !vec land 1 <> 0 then sum := !sum lxor mat.(!i);
    vec := !vec lsr 1;
    incr i
  done;
  !sum

(* [zero_ops.(k)] advances a CRC past [2^k] zero bytes; built at start-up
   by repeated squaring of the one-zero-byte operator. *)
let zero_ops =
  let one_byte = Array.init 32 (fun n ->
      let v = 1 lsl n in
      (v lsr 8) lxor tables.(v land 0xff))
  in
  let ops = Array.make 63 [||] in
  ops.(0) <- one_byte;
  for k = 1 to 62 do
    let prev = ops.(k - 1) in
    ops.(k) <- Array.init 32 (fun n -> gf2_times prev prev.(n))
  done;
  ops

(* Advance a (finalized) CRC past [len] zero bytes: one matrix application
   per set bit of [len]. *)
let apply_zeros crc len =
  let crc = ref crc in
  let len = ref len in
  let k = ref 0 in
  while !len <> 0 do
    if !len land 1 <> 0 then crc := gf2_times zero_ops.(!k) !crc;
    len := !len lsr 1;
    incr k
  done;
  !crc

let crc32_combine crc1 crc2 ~len2 =
  if len2 < 0 then invalid_arg "Checksum.crc32_combine: negative len2";
  if len2 = 0 then crc1
  else
    Int32.of_int
      (apply_zeros (Int32.to_int crc1 land 0xffffffff) len2
      lxor (Int32.to_int crc2 land 0xffffffff))

(* --- the kernels --- *)

let check_bounds name b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg (name ^ ": out of bounds")

let crc32_bytewise b ~pos ~len =
  check_bounds "Checksum.crc32_bytewise" b ~pos ~len;
  let t = tables in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

(* One slicing-by-8 step: fold 8 bytes at [i] into pre-conditioned state
   [c].  The table indices are masked to 8 bits (plus a fixed slice offset),
   so the unchecked accesses are in range by construction; [c] stays below
   2^32 because every table entry does. *)
let[@inline] step t c b i =
  let lo = c lxor (get16u b i lor (get16u b (i + 2) lsl 16)) in
  let hi = get16u b (i + 4) lor (get16u b (i + 6) lsl 16) in
  Array.unsafe_get t (0x700 + (lo land 0xff))
  lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get t (0x400 + (lo lsr 24))
  lxor Array.unsafe_get t (0x300 + (hi land 0xff))
  lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
  lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
  lxor Array.unsafe_get t (hi lsr 24)

(* Single-stream slicing-by-8 over pre-conditioned state. *)
let crc_stream t b ~pos ~len ~c0 =
  let c = ref c0 in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    c := step t !c b !i;
    i := !i + 8
  done;
  let stop = pos + len in
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c

(* Above this size the buffer is split into two independently-CRCed streams
   whose slicing steps interleave in one loop: the per-stream serial
   dependency on the CRC state is the throughput limit, and two chains give
   the CPU twice the instruction-level parallelism.  The halves are merged
   with the same zero-operator algebra as {!crc32_combine}. *)
let dual_threshold = 128

(* The slicing-by-8 kernel over pre-conditioned state [c0], returning the
   pre-conditioned state after [len] bytes at [pos] (bounds already
   checked). *)
let ocaml_state b ~pos ~len ~c0 =
  let t = tables in
  if len < dual_threshold then crc_stream t b ~pos ~len ~c0
  else begin
    let half = len / 2 land lnot 7 in
    let len2 = len - half in
    let ca = ref c0 in
    let cb = ref 0xffffffff in
    let i = ref pos in
    let j = ref (pos + half) in
    for _ = 1 to half / 8 do
      ca := step t !ca b !i;
      cb := step t !cb b !j;
      i := !i + 8;
      j := !j + 8
    done;
    (* The second stream may be up to 15 bytes longer; finish it alone. *)
    let cb = crc_stream t b ~pos:!j ~len:(pos + len - !j) ~c0:!cb in
    apply_zeros (!ca lxor 0xffffffff) len2 lxor cb
  end

let crc32_ocaml ?(init = 0l) b ~pos ~len =
  check_bounds "Checksum.crc32_ocaml" b ~pos ~len;
  let c0 = Int32.to_int init land 0xffffffff lxor 0xffffffff in
  Int32.of_int (ocaml_state b ~pos ~len ~c0 lxor 0xffffffff)

(* --- the carry-less-multiply kernel (checksum_stubs.c) ---

   [fold b pos len state] advances pre-conditioned [state] over [len] bytes
   at [pos], where [len] is a multiple of 16 and at least [hw_min].  The
   stub reads the bytes in place and neither allocates nor raises, so it is
   [noalloc]; every bound is checked here before the call. *)
external fold :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rw_crc32_fold_byte" "rw_crc32_fold"
[@@noalloc]

external hw_available : unit -> bool = "rw_crc32_hw_available" [@@noalloc]

(* Whether this CPU has PCLMULQDQ and SSE4.1: asked once, at start-up, and
   never changed, so every domain sees the same answer. *)
let hw = hw_available ()
let kernel = if hw then "pclmulqdq" else "slicing-by-8"

(* The stub starts with four full 16-byte lanes, so it needs at least 64
   bytes. *)
let hw_min = 64

let crc32 ?(init = 0l) b ~pos ~len =
  check_bounds "Checksum.crc32" b ~pos ~len;
  let c0 = Int32.to_int init land 0xffffffff lxor 0xffffffff in
  if hw && len >= hw_min then begin
    (* Whole 16-byte blocks in the stub, the tail of up to 15 bytes here. *)
    let whole = len land lnot 15 in
    let c = fold b pos whole c0 in
    Int32.of_int (crc_stream tables b ~pos:(pos + whole) ~len:(len - whole) ~c0:c lxor 0xffffffff)
  end
  else Int32.of_int (ocaml_state b ~pos ~len ~c0 lxor 0xffffffff)

let crc32_string s = crc32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
