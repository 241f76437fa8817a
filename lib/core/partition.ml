type desc = {
  id : int;
  lo : Storage.Row.key;
  hi : Storage.Row.key;  (** exclusive *)
  members : int list;  (** primary first *)
}

type t = {
  replication : int;
  key_space : int;
  width : int;
  mutable version : int;
  mutable descs : desc list;  (** sorted by [lo] *)
  mutable next_id : int;
  mutable route_cache : (int array * int array) option;
      (** per-desc (numeric lo, range id), sorted by lo — rebuilt lazily
          after any layout change so [route] is a binary search instead of a
          list walk with a string re-encode per call *)
}

let rec digits k = if k < 10 then 1 else 1 + digits (k / 10)

(* Zero-padded decimal encode, equivalent to [Printf.sprintf "%0*d"] for the
   values routing produces; hand-rolled because it runs on every generated
   key. Values wider than [width] keep all their digits, like sprintf. *)
let encode_int ~width k =
  if k < 0 then Printf.sprintf "%0*d" width k
  else begin
    let n = Stdlib.max width (digits k) in
    let b = Bytes.make n '0' in
    let rec fill i k =
      if k > 0 then begin
        Bytes.unsafe_set b i (Char.unsafe_chr (48 + (k mod 10)));
        fill (i - 1) (k / 10)
      end
    in
    fill (n - 1) k;
    Bytes.unsafe_to_string b
  end

let key_of_int t k = encode_int ~width:t.width k

(* Map an arbitrary key into [0, key_space). The all-digits fast path (the
   canonical encoding) parses in place; anything else falls back to the
   historical trim/parse/hash pipeline, bit-compatible with it. *)
let numeric_of_key t key =
  let n = String.length key in
  let rec go i acc =
    if i = n then acc
    else
      let d = Char.code (String.unsafe_get key i) - 48 in
      if d < 0 || d > 9 then -1 else go (i + 1) ((acc * 10) + d)
  in
  let fast = if n = 0 || n > 18 then -1 else go 0 0 in
  if fast >= 0 then fast mod t.key_space
  else
    match int_of_string_opt (String.trim key) with
    | Some v -> ((v mod t.key_space) + t.key_space) mod t.key_space
    | None -> Hashtbl.hash key mod t.key_space

let sort_descs descs = List.sort (fun a b -> String.compare a.lo b.lo) descs

let create ~nodes ~replication ~key_space =
  assert (nodes >= replication && replication >= 1 && key_space >= nodes);
  (* Wide enough for [key_space] itself, so the exclusive end bound of the
     last range still encodes in lexicographic order. *)
  let width = String.length (string_of_int key_space) in
  let t =
    {
      replication;
      key_space;
      width;
      version = 1;
      descs = [];
      next_id = nodes;
      route_cache = None;
    }
  in
  (* Seed layout: one base range per node, chained declustering — the layout
     of Figure 2, identical to the original static math. *)
  t.descs <-
    List.init nodes (fun range ->
        let start = range * key_space / nodes in
        let stop = if range = nodes - 1 then key_space else (range + 1) * key_space / nodes in
        {
          id = range;
          lo = key_of_int t start;
          hi = key_of_int t stop;
          members = List.init replication (fun i -> (range + i) mod nodes);
        });
  t

let ranges t = List.length t.descs
let replication t = t.replication
let version t = t.version
let key_space t = t.key_space
let range_ids t = List.map (fun d -> d.id) t.descs
let descs t = t.descs
let mem_range t ~range = List.exists (fun d -> d.id = range) t.descs

let copy t = { t with descs = t.descs }

let invalidate_route_cache t = t.route_cache <- None

let route_arrays t =
  match t.route_cache with
  | Some c -> c
  | None ->
    let descs = Array.of_list t.descs in
    let lo = Array.map (fun d -> numeric_of_key t d.lo) descs in
    let ids = Array.map (fun d -> d.id) descs in
    t.route_cache <- Some (lo, ids);
    (lo, ids)

let find t ~range =
  match List.find_opt (fun d -> d.id = range) t.descs with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Partition: unknown range %d" range)

let route t key =
  (* Keys are nominally zero-padded decimals; anything else hashes into the
     numeric key space first so every key routes somewhere deterministic.
     Descriptors tile [0, key_space): the owner is the last one whose [lo]
     is at or below the key (equality of string and numeric order is what
     the zero-padding buys). *)
  let numeric = numeric_of_key t key in
  let lo, ids = route_arrays t in
  let rec bs l r best =
    if l > r then best
    else
      let m = (l + r) / 2 in
      if lo.(m) <= numeric then bs (m + 1) r m else bs l (m - 1) best
  in
  ids.(bs 0 (Array.length lo - 1) 0)

let cohort t ~range = (find t ~range).members
let primary t ~range = List.hd (find t ~range).members

let ranges_of_node t ~node =
  List.filter_map (fun d -> if List.mem node d.members then Some d.id else None) t.descs

let range_bounds t ~range =
  let d = find t ~range in
  (d.lo, d.hi)

(* ------------------------------------------------------------------ *)
(* Mutation — applied when a Paxos-replicated meta record commits.      *)

let set_members t ~range members =
  let d = find t ~range in
  if d.members = members then false
  else begin
    t.descs <- List.map (fun d' -> if d'.id = range then { d' with members } else d') t.descs;
    invalidate_route_cache t;
    t.version <- t.version + 1;
    true
  end

let split t ~range ~at ~new_range =
  if mem_range t ~range:new_range then false (* already applied *)
  else begin
    let d = find t ~range in
    if String.compare d.lo at >= 0 || String.compare at d.hi >= 0 then false
    else begin
      let parent = { d with hi = at } in
      let child = { id = new_range; lo = at; hi = d.hi; members = d.members } in
      t.descs <-
        sort_descs (child :: List.map (fun d' -> if d'.id = range then parent else d') t.descs);
      invalidate_route_cache t;
      t.next_id <- Stdlib.max t.next_id (new_range + 1);
      t.version <- t.version + 1;
      true
    end
  end

(* ------------------------------------------------------------------ *)
(* Serialization for the ZK [/layout] znode.                            *)

let to_string t =
  let desc d =
    Printf.sprintf "%d:%s:%s:%s" d.id d.lo d.hi
      (String.concat "," (List.map string_of_int d.members))
  in
  Printf.sprintf "%d|%d|%s" t.version t.next_id (String.concat ";" (List.map desc t.descs))

let of_string_exn s =
  match String.split_on_char '|' s with
  | [ version; next_id; body ] ->
    let descs =
      String.split_on_char ';' body
      |> List.map (fun field ->
             match String.split_on_char ':' field with
             | [ id; lo; hi; members ] ->
               {
                 id = int_of_string id;
                 lo;
                 hi;
                 members = String.split_on_char ',' members |> List.map int_of_string;
               }
             | _ -> failwith "Partition.of_string: bad desc")
    in
    (int_of_string version, int_of_string next_id, sort_descs descs)
  | _ -> failwith "Partition.of_string: bad layout"

let update_from_string t s =
  match of_string_exn s with
  | version, next_id, descs when version > t.version ->
    t.version <- version;
    t.next_id <- next_id;
    t.descs <- descs;
    invalidate_route_cache t;
    true
  | _ -> false
  | exception _ -> false
