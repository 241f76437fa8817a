module Coord_map = Map.Make (struct
  type t = Row.coord

  let compare = Row.compare_coord
end)

type t = {
  mutable cells : Row.cell Coord_map.t;
  mutable bytes : int;
  mutable max_lsn : Lsn.t;
}

let create () = { cells = Coord_map.empty; bytes = 0; max_lsn = Lsn.zero }

let cell_bytes (key, col) (cell : Row.cell) =
  String.length key + String.length col
  + (match cell.value with Some v -> String.length v | None -> 0)
  + 32

(* One descent: [Coord_map.update] finds the slot, decides, and rebuilds
   the path at most once. The map comes back physically unchanged when the
   existing cell wins. *)
let put t ?newer coord cell =
  t.cells <-
    Coord_map.update coord
      (fun existing ->
        match (newer, existing) with
        | Some newer, Some old when newer old cell -> existing
        | _ ->
          (match existing with
          | Some old -> t.bytes <- t.bytes - cell_bytes coord old
          | None -> ());
          t.bytes <- t.bytes + cell_bytes coord cell;
          t.max_lsn <- Lsn.max t.max_lsn cell.Row.lsn;
          Some cell)
      t.cells

(* Staged bulk load for recovery replay: the same per-coordinate [newer]
   decision as [put], made in a hash table, and one map insertion per
   distinct coordinate when the stage becomes a memtable. [s_max_lsn] is the
   max over accepted cells, exactly what successive [put]s would leave in
   [max_lsn]. *)
type staged = {
  slots : (Row.coord, Row.cell ref) Hashtbl.t;
  s_newer : (Row.cell -> Row.cell -> bool) option;
  mutable s_max_lsn : Lsn.t;
}

let staged ?newer () = { slots = Hashtbl.create 256; s_newer = newer; s_max_lsn = Lsn.zero }

let stage s coord (cell : Row.cell) =
  match Hashtbl.find s.slots coord with
  | slot -> (
    match s.s_newer with
    | Some newer when newer !slot cell -> ()
    | _ ->
      slot := cell;
      s.s_max_lsn <- Lsn.max s.s_max_lsn cell.lsn)
  | exception Not_found ->
    Hashtbl.add s.slots coord (ref cell);
    s.s_max_lsn <- Lsn.max s.s_max_lsn cell.lsn

let of_staged s =
  let t = create () in
  Hashtbl.iter
    (fun coord slot ->
      t.cells <- Coord_map.add coord !slot t.cells;
      t.bytes <- t.bytes + cell_bytes coord !slot)
    s.slots;
  t.max_lsn <- s.s_max_lsn;
  t

let get t coord = Coord_map.find_opt coord t.cells
let size t = Coord_map.cardinal t.cells
let approx_bytes t = t.bytes
let is_empty t = Coord_map.is_empty t.cells
let to_sorted_list t = Coord_map.bindings t.cells

let range t ~low ~high =
  (* Seek to the first coord at or after (low, "") and walk forward until the
     key reaches [high]: O(log n + slice), not a full-map fold. *)
  let rec collect seq acc =
    match seq () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((((key, _) as coord), cell), rest) ->
      if String.compare key high >= 0 then List.rev acc
      else collect rest ((coord, cell) :: acc)
  in
  collect (Coord_map.to_seq_from (low, "") t.cells) []
let to_seq_from t ~low = Coord_map.to_seq_from (low, "") t.cells

let clear t =
  t.cells <- Coord_map.empty;
  t.bytes <- 0;
  t.max_lsn <- Lsn.zero

let max_lsn t = t.max_lsn
