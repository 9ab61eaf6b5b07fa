(** Table schemas and their serialised catalog form. *)

type col_type = Int | Text

type column = { name : string; ctype : col_type }

type kind = Btree_table | Heap_table

type index = {
  index_name : string;
  column : string;  (** the indexed column *)
  index_root : Rw_storage.Page_id.t;  (** root of the posting-list B-tree *)
}

type table = {
  id : int;
  name : string;
  kind : kind;
  root : Rw_storage.Page_id.t;  (** B-tree root or heap first page *)
  columns : column list;
  indexes : index list;
}

val encode : table -> string
val decode : string -> table

val validate : name:string -> columns:column list -> (unit, string) result
(** Check identifier and column-list well-formedness (non-empty name, at
    least one column, unique column names, key column first and of type
    Int). *)
