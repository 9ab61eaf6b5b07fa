(** Slotted record layout inside a {!Page}.

    Records are addressed by slot index.  The slot array grows upward from
    the header; record data grows downward from the page end.  Deleting or
    shrinking a record leaves garbage that is reclaimed by compaction when an
    allocation would otherwise fail.

    B-tree and heap rows both live in slotted pages; B-tree pages keep their
    slots sorted by the row key (the first 8 bytes of the record, little
    endian), which {!find_key} exploits with binary search. *)

exception Page_full

val free_space : Page.t -> int
(** Space available for one more record including its slot, after an
    hypothetical compaction. *)

val insert : Page.t -> at:int -> string -> unit
(** [insert p ~at data] inserts a record at slot index [at]
    (0 <= at <= slot_count), shifting later slots.  Raises {!Page_full} if it
    does not fit, [Invalid_argument] on a bad index or oversized record. *)

val insert_sub : Page.t -> at:int -> bytes -> pos:int -> len:int -> unit
(** {!insert} of the record held in [src.[pos .. pos+len-1]], copied
    straight from the source slice (e.g. a log-segment blob).  [src] must
    not be the page itself. *)

val delete : Page.t -> at:int -> unit
(** Remove the slot at [at], shifting later slots down. *)

val get : Page.t -> at:int -> string
(** Record contents at slot [at]. *)

val set : Page.t -> at:int -> string -> unit
(** Replace the record at slot [at]; may grow or shrink it.
    Raises {!Page_full} if the new size does not fit. *)

val set_sub : Page.t -> at:int -> bytes -> pos:int -> len:int -> unit
(** {!set} from a source slice, as {!insert_sub}. *)

val count : Page.t -> int
val iter : Page.t -> (int -> string -> unit) -> unit
val fold : Page.t -> init:'a -> f:('a -> int -> string -> 'a) -> 'a

val key_at : Page.t -> at:int -> int64
(** The first 8 bytes of the record, as a little-endian int64 key. *)

val find_key : Page.t -> int64 -> (int, int) Either.t
(** Binary search among sorted keys, compared as signed int64s where they
    sit in the page.  [Left i] means found at slot [i]; [Right i] means
    not present, insertion point [i]. *)

val child_at : Page.t -> at:int -> Page_id.t
(** The child page of the B-tree internal row at slot [at] (key, then the
    child id in the next 8 bytes), read in place.  Raises
    [Invalid_argument] unless the record is 16 bytes. *)

val payload_at : Page.t -> at:int -> string
(** The B-tree leaf row at slot [at] without its 8-byte key: one copy
    out of the page.  Raises [Invalid_argument] on a record shorter
    than 8 bytes. *)

val used_bytes : Page.t -> int
(** Bytes occupied by live records and slots. *)
