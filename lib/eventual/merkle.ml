let nbuckets = 1024

type t = {
  hashes : int array;  (** combined hash per bucket; 0 = empty bucket *)
  members : Storage.Row.coord list array;  (** bucket coordinates, descending *)
  root : int;
}

let bucket_of coord = Hashtbl.hash coord land (nbuckets - 1)

let cell_hash (cell : Storage.Row.cell) =
  Hashtbl.hash (cell.value, cell.version, cell.timestamp)

let build entries =
  let hashes = Array.make nbuckets 0 in
  let members = Array.make nbuckets [] in
  (* Entries arrive sorted by coordinate, so each bucket's hash chain is
     deterministic regardless of which replica builds the tree. *)
  List.iter
    (fun ((coord, cell) : Storage.Row.coord * Storage.Row.cell) ->
      let b = bucket_of coord in
      hashes.(b) <- Hashtbl.hash (hashes.(b), coord, cell_hash cell);
      members.(b) <- coord :: members.(b))
    entries;
  (* Combine bucket hashes pairwise up to a root (the tree the wire protocol
     would actually ship level by level). *)
  let level = ref (Array.copy hashes) in
  while Array.length !level > 1 do
    let n = Array.length !level / 2 in
    let next = Array.make n 0 in
    for i = 0 to n - 1 do
      next.(i) <- Hashtbl.hash ((!level).(2 * i), (!level).((2 * i) + 1))
    done;
    level := next
  done;
  { hashes; members; root = (!level).(0) }

let equal a b = a.root = b.root

let depth _ =
  let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
  log2 nbuckets 1

let diff a b =
  if equal a b then []
  else begin
    let acc = ref [] in
    for bucket = 0 to nbuckets - 1 do
      if a.hashes.(bucket) <> b.hashes.(bucket) then
        acc := List.rev_append a.members.(bucket) (List.rev_append b.members.(bucket) !acc)
    done;
    List.sort_uniq Storage.Row.compare_coord !acc
  end
