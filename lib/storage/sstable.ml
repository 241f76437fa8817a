type t = {
  coords : Row.coord array;
  cells : Row.cell array;
  bloom : Bloom.t;
  min_lsn : Lsn.t;
  max_lsn : Lsn.t;
  bytes : int;
  has_intents : bool;  (** holds an intent-column cell, live or tombstone *)
}

let build entries =
  let n = List.length entries in
  let coords = Array.make n ("", "") in
  let cells =
    Array.make n Row.{ value = None; version = 0; lsn = Lsn.zero; timestamp = 0; txn_ts = None }
  in
  let bloom = Bloom.create ~expected:(Stdlib.max 1 n) () in
  let min_lsn = ref Lsn.zero and max_lsn = ref Lsn.zero and bytes = ref 0 in
  let first = ref true and has_intents = ref false in
  List.iteri
    (fun i (coord, (cell : Row.cell)) ->
      if i > 0 && Row.compare_coord coords.(i - 1) coord >= 0 then
        invalid_arg "Sstable.build: entries not strictly ascending";
      coords.(i) <- coord;
      cells.(i) <- cell;
      Bloom.add bloom (fst coord);
      if Row.is_intent_col (snd coord) then has_intents := true;
      bytes :=
        !bytes + String.length (fst coord) + String.length (snd coord)
        + (match cell.value with Some v -> String.length v | None -> 0)
        + 32;
      if !first then begin
        min_lsn := cell.lsn;
        max_lsn := cell.lsn;
        first := false
      end
      else begin
        min_lsn := Lsn.min !min_lsn cell.lsn;
        max_lsn := Lsn.max !max_lsn cell.lsn
      end)
    entries;
  {
    coords;
    cells;
    bloom;
    min_lsn = !min_lsn;
    max_lsn = !max_lsn;
    bytes = !bytes;
    has_intents = !has_intents;
  }

let binary_search t coord =
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      match Row.compare_coord t.coords.(mid) coord with
      | 0 -> Some mid
      | c when c < 0 -> go (mid + 1) hi
      | _ -> go lo mid
    end
  in
  go 0 (Array.length t.coords)

let get t coord =
  if not (Bloom.mem t.bloom (fst coord)) then None
  else Option.map (fun i -> t.cells.(i)) (binary_search t coord)

let may_contain_key t key = Bloom.mem t.bloom key
let count t = Array.length t.coords

let iter t f =
  for i = 0 to Array.length t.coords - 1 do
    f t.coords.(i) t.cells.(i)
  done

let to_list t =
  List.init (Array.length t.coords) (fun i -> (t.coords.(i), t.cells.(i)))

let min_lsn t = t.min_lsn
let max_lsn t = t.max_lsn
let has_intents t = t.has_intents
let min_key t = if Array.length t.coords = 0 then None else Some (fst t.coords.(0))

let max_key t =
  let n = Array.length t.coords in
  if n = 0 then None else Some (fst t.coords.(n - 1))

let cells_with_lsn_in t ~above ~upto =
  let acc = ref [] in
  for i = Array.length t.coords - 1 downto 0 do
    let cell = t.cells.(i) in
    if Lsn.(cell.lsn > above) && Lsn.(cell.lsn <= upto) then
      acc := (t.coords.(i), cell) :: !acc
  done;
  !acc

(* First index whose key is >= low (keys are the major sort component). *)
let lower_bound t low =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if String.compare (fst t.coords.(mid)) low < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t.coords)

let seek = lower_bound
let entry t i = (t.coords.(i), t.cells.(i))

let range t ~low ~high =
  let acc = ref [] in
  let n = Array.length t.coords in
  let rec walk i =
    if i < n then begin
      let key = fst t.coords.(i) in
      if String.compare key high < 0 then begin
        acc := (t.coords.(i), t.cells.(i)) :: !acc;
        walk (i + 1)
      end
    end
  in
  walk (lower_bound t low);
  List.rev !acc

let approx_bytes t = t.bytes
