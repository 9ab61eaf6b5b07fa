(** Top-level engine: a registry of databases and snapshot views sharing one
    simulated clock and media configuration.  This is the surface the SQL
    layer executes against ([CREATE DATABASE ... AS SNAPSHOT OF ...]). *)

type t

exception Database_exists of string
exception No_such_database of string

val create :
  ?media:Rw_storage.Media.t -> ?log_media:Rw_storage.Media.t -> ?seed_clock_us:float -> unit -> t
(** Default media is {!Rw_storage.Media.ssd} for both data and log. *)

val clock : t -> Rw_storage.Sim_clock.t
val now_us : t -> float
val now_s : t -> float
val media : t -> Rw_storage.Media.t

val create_database :
  t ->
  ?fpi:Rw_access.Access_ctx.fpi ->
  ?pool_capacity:int ->
  ?checkpoint_interval_us:float ->
  ?log_cache_blocks:int ->
  ?log_block_bytes:int ->
  ?log_segment_bytes:int ->
  ?fault_plan:Rw_storage.Fault_plan.t ->
  string ->
  Database.t

val attach_database : t -> Database.t -> Database.t
(** Register an externally constructed database (e.g. {!Database.load}
    output) under its own name.  It must share this engine's clock. *)

val find_database : t -> string -> Database.t option
val find_database_exn : t -> string -> Database.t
val database_names : t -> string list

val create_snapshot : ?shared:bool -> t -> of_:string -> name:string -> wall_us:float -> Database.t
(** Create an as-of snapshot of database [of_] and register it under
    [name].  [shared] is passed through to
    {!Database.create_as_of_snapshot} (default [true]: read through the
    shared prepared-page cache). *)

val drop_database : t -> string -> unit
(** Unregister a database or snapshot view (dropping a snapshot releases
    its sparse file). *)
