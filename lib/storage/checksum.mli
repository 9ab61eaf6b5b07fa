(** CRC-32 (IEEE 802.3 polynomial) checksums for page integrity.

    Pages carry a checksum computed on flush and verified on read so that a
    torn or corrupted page image is detected rather than silently used.

    The main kernel is a table-driven slicing-by-8 implementation over plain
    [int] arithmetic (eight bytes per step, no [Int32] boxing); see DESIGN.md
    "Write path". *)

val crc32 : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [crc32 b ~pos ~len] is the CRC-32 of [len] bytes of [b] starting at
    [pos].  [init] allows incremental computation over several slices. *)

val crc32_bytewise : bytes -> pos:int -> len:int -> int32
(** Reference one-byte-at-a-time kernel.  Always agrees with {!crc32}; kept
    for cross-checking and as the benchmark baseline. *)

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
