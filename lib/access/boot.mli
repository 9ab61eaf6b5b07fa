(** The boot page (page 0).

    Holds a handful of well-known (key, int64) settings — the next fresh
    page id, the catalog root, counters.  Like everything else it is a
    slotted page whose updates are ordinary logged row operations, so the
    as-of machinery rewinds it with the same mechanism as user data (which
    is what makes metadata time travel work, paper §3). *)

(* Well-known keys. *)
val key_next_page_id : int64
val key_catalog_root : int64
val key_next_table_id : int64

val init : Access_ctx.t -> Rw_txn.Txn_manager.txn -> unit
(** Format page 0 as the boot page (database creation). *)

val get_exn :
  ?seen:(Rw_storage.Page_id.t -> Rw_storage.Page.t -> unit) -> Access_ctx.t -> int64 -> int64
(** A setting's value; [seen] runs on the boot page under the read's
    latch. *)

val set : Access_ctx.t -> Rw_txn.Txn_manager.txn -> int64 -> int64 -> unit
(** Insert or update a setting (logged). *)
