(** CRC-32 (IEEE 802.3 polynomial) checksums for page integrity.

    Pages carry a checksum computed on flush and verified on read so that a
    torn or corrupted page image is detected rather than silently used; log
    records carry one too.

    Two kernels compute the same function.  On a CPU that reports PCLMULQDQ
    and SSE4.1 (asked once, at start-up), {!crc32} folds the whole 16-byte
    blocks of an input of 64 bytes or more in a C stub (checksum_stubs.c)
    with carry-less multiplication, and finishes the tail of up to 15 bytes
    in OCaml.  Shorter inputs, and every input on other hosts, take the
    table-driven slicing-by-8 kernel over plain [int] arithmetic.  Both
    compute the CRC of the same polynomial from the same pre-conditioned
    state, so their results are equal bit for bit and no stored checksum
    depends on the host; see DESIGN.md "CRC32 kernel". *)

val crc32 : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [crc32 b ~pos ~len] is the CRC-32 of [len] bytes of [b] starting at
    [pos].  [init] allows incremental computation over several slices.
    Raises [Invalid_argument] unless [0 <= pos], [0 <= len] and
    [pos + len <= Bytes.length b]. *)

val crc32_bytewise : bytes -> pos:int -> len:int -> int32
(** Reference one-byte-at-a-time kernel.  Always agrees with {!crc32}; kept
    for cross-checking and as the benchmark baseline. *)

val crc32_ocaml : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** {!crc32} computed by the slicing-by-8 kernel alone, whatever the CPU.
    (test support: the tests check both kernels against
    {!crc32_bytewise}.) *)

val kernel : string
(** The kernel {!crc32} uses for long inputs on this host: ["pclmulqdq"] or
    ["slicing-by-8"]. *)

val crc32_string : string -> int32
(** CRC-32 of a whole string.  (test support: the known-answer vectors.) *)

val crc32_combine : int32 -> int32 -> len2:int -> int32
(** [crc32_combine crc1 crc2 ~len2] is the CRC-32 of the concatenation of two
    buffers whose individual checksums are [crc1] and [crc2], where the
    second buffer is [len2] bytes long — O(log len2), without rereading
    either buffer.  This is the incremental entry point for checksumming a
    page from cached per-region CRCs when only one region changed.  (test
    support: no engine path caches per-region CRCs; the tests check the
    algebra against {!crc32}.) *)
