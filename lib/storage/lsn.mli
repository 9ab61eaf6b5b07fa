(** Log sequence numbers.

    An LSN identifies a log record and totally orders all log records of a
    database.  In this engine, as in many real systems, an LSN is one plus the
    byte offset of the record in the log stream, so LSNs are dense and
    monotonically increasing.  [nil] (= 0) means "no LSN" and is smaller than
    every valid LSN. *)

type t

val nil : t
(** The null LSN; smaller than any valid LSN. *)

val of_int : int -> t
(** [of_int i] views [i] as an LSN.  Raises [Invalid_argument] if [i < 0]. *)

val to_int : t -> int

val of_int_array : int array -> t array
(** [of_int_array a] views the ints of [a] as LSNs, without a copy or a
    call per element: [a] itself is returned, and the caller must not
    change it afterwards.  Raises [Invalid_argument] if one is negative. *)

val is_nil : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t
val pp : Format.formatter -> t -> unit
