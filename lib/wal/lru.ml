(* Doubly-linked list threaded through a hashtable; O(1) use/evict. *)

type node = { key : int; mutable prev : node option; mutable next : node option }

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { capacity; table = Hashtbl.create (2 * capacity); head = None; tail = None }

let mem t k = Hashtbl.mem t.table k

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table k

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key

let use t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      unlink t n;
      push_front t n;
      true
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let n = { key = k; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n;
      false

let size t = Hashtbl.length t.table
let capacity t = t.capacity

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
