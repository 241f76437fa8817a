(* Bounded LRU cache keyed by coordinate, doubly-linked recency list over a
   hash table: O(1) find/put/invalidate.

   The recency list is circular through a sentinel node, so relinking an
   entry on a hit is six pointer writes and zero allocations (the previous
   option-linked list allocated [Some _] wrappers on every promotion, which
   showed up in the read-bench profile: every row-cache hit relinks). *)

type 'v node = {
  key : Row.coord;
  mutable value : 'v;
  mutable prev : 'v node;  (** towards the most recent end *)
  mutable next : 'v node;  (** towards the least recent end *)
}

type 'v t = {
  capacity : int;
  tbl : (Row.coord, 'v node) Hashtbl.t;
  sentinel : 'v node;  (** [sentinel.next] = MRU, [sentinel.prev] = LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  (* The sentinel's key/value are never read; [Obj.magic] only fabricates the
     unused ['v] slot. *)
  let rec sentinel = { key = ("", ""); value = Obj.magic 0; prev = sentinel; next = sentinel } in
  {
    capacity;
    tbl = Hashtbl.create (min capacity 1024);
    sentinel;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let size t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  let first = t.sentinel.next in
  node.prev <- t.sentinel;
  node.next <- first;
  first.prev <- node;
  t.sentinel.next <- node

let find t key =
  (* [Hashtbl.find] + the preallocated [Not_found] rather than [find_opt]:
     hits are ~90% of row-cache traffic and this spares the [Some] box. *)
  match Hashtbl.find t.tbl key with
  | node ->
    t.hits <- t.hits + 1;
    if t.sentinel.next != node then begin
      unlink node;
      push_front t node
    end;
    Some node.value
  | exception Not_found ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  let node = t.sentinel.prev in
  if node != t.sentinel then begin
    unlink node;
    Hashtbl.remove t.tbl node.key;
    t.evictions <- t.evictions + 1
  end

let put t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    node.value <- value;
    if t.sentinel.next != node then begin
      unlink node;
      push_front t node
    end
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    let rec node = { key; value; prev = node; next = node } in
    Hashtbl.replace t.tbl key node;
    push_front t node

let invalidate t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some node ->
    unlink node;
    Hashtbl.remove t.tbl key;
    t.invalidations <- t.invalidations + 1

let clear t =
  Hashtbl.reset t.tbl;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel
