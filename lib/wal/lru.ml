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

(* A value-carrying LRU bounded by total weight (bytes) rather than entry
   count — the decoded-record cache.  Same threaded-list structure as the
   set above, but eviction runs until the weight budget is met, so one
   oversized entry can displace many small ones. *)
module Weighted = struct
  type 'a node = {
    key : int;
    value : 'a;
    weight : int;
    mutable live : bool;
        (* Flipped off on eviction/removal so external pointers to the node
           (e.g. the log manager's per-entry cache slot) can detect
           staleness without a table lookup. *)
    mutable prev : 'a node option;
    mutable next : 'a node option;
  }

  type 'a t = {
    capacity_bytes : int;
    table : (int, 'a node) Hashtbl.t;
    mutable head : 'a node option;
    mutable tail : 'a node option;
    mutable total_weight : int;
  }

  let create ~capacity_bytes =
    if capacity_bytes < 1 then invalid_arg "Lru.Weighted.create: capacity < 1";
    { capacity_bytes; table = Hashtbl.create 256; head = None; tail = None; total_weight = 0 }

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

  let drop_node t n =
    unlink t n;
    n.live <- false;
    Hashtbl.remove t.table n.key;
    t.total_weight <- t.total_weight - n.weight

  let remove t k =
    match Hashtbl.find_opt t.table k with None -> () | Some n -> drop_node t n

  let rec evict_to_fit t =
    if t.total_weight > t.capacity_bytes then
      match t.tail with
      | None -> ()
      | Some n ->
          drop_node t n;
          evict_to_fit t

  let add_node t k ~weight value =
    remove t k;
    let n = { key = k; value; weight; live = false; prev = None; next = None } in
    (* An entry larger than the whole budget would evict everything and
       still not fit; don't cache it at all (the node is returned dead). *)
    if weight <= t.capacity_bytes then begin
      n.live <- true;
      Hashtbl.replace t.table k n;
      push_front t n;
      t.total_weight <- t.total_weight + weight;
      evict_to_fit t
    end;
    n

  let alive n = n.live
  let node_value n = n.value

  let touch t n =
    if n.live then begin
      unlink t n;
      push_front t n
    end

  let size_bytes t = t.total_weight
  let entry_count t = Hashtbl.length t.table

  let clear t =
    Hashtbl.reset t.table;
    t.head <- None;
    t.tail <- None;
    t.total_weight <- 0
end
