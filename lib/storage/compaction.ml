let build_table ~newer ?(drop_tombstones = false) sources =
  let it = Iterator.merge ~newer sources in
  let entries =
    Iterator.fold it
      (fun acc coord cell ->
        if drop_tombstones && Row.is_tombstone cell then acc else (coord, cell) :: acc)
      []
  in
  Sstable.build (List.rev entries)

let merge ~newer ?(drop_tombstones = false) tables =
  build_table ~newer ~drop_tombstones (List.map (fun t -> Iterator.of_sstable t) tables)

type plan = All | Run of { start : int; length : int }

let default_growth = 2.0

let plan ~fanin ~max_tables ?(growth = default_growth) tables =
  let n = List.length tables in
  if n = 0 then None
  else if n >= max_tables then Some All
  else if n < fanin then None
  else begin
    let bytes = Array.of_list (List.map Sstable.approx_bytes tables) in
    let similar lo hi = float_of_int hi <= growth *. float_of_int (Stdlib.max 1 lo) in
    (* Cheapest window of [fanin] adjacent similar-sized tables. Adjacency
       keeps the newest-first stacking order intact when the merged table is
       spliced back in place of the run. *)
    let best = ref None in
    for start = 0 to n - fanin do
      let lo = ref max_int and hi = ref 0 and total = ref 0 in
      for i = start to start + fanin - 1 do
        lo := Stdlib.min !lo bytes.(i);
        hi := Stdlib.max !hi bytes.(i);
        total := !total + bytes.(i)
      done;
      if similar !lo !hi then
        match !best with
        | Some (_, t) when t <= !total -> ()
        | _ -> best := Some (start, !total)
    done;
    match !best with
    | None -> None
    | Some (start, _) ->
      (* Absorb older tables that still fit the tier, up to twice the fan-in,
         so one merge retires a whole tier rather than leaving a remainder. *)
      let lo = ref max_int and hi = ref 0 in
      for i = start to start + fanin - 1 do
        lo := Stdlib.min !lo bytes.(i);
        hi := Stdlib.max !hi bytes.(i)
      done;
      let length = ref fanin in
      while
        start + !length < n
        && !length < 2 * fanin
        && similar
             (Stdlib.min !lo bytes.(start + !length))
             (Stdlib.max !hi bytes.(start + !length))
      do
        lo := Stdlib.min !lo bytes.(start + !length);
        hi := Stdlib.max !hi bytes.(start + !length);
        incr length
      done;
      Some (Run { start; length = !length })
  end
