module Lsn_set = Set.Make (struct
  type t = Lsn.t

  let compare = Lsn.compare
end)

type t = { mutable set : Lsn_set.t }

let create () = { set = Lsn_set.empty }
let add t lsns = t.set <- List.fold_left (fun s l -> Lsn_set.add l s) t.set lsns
let mem t lsn = Lsn_set.mem lsn t.set

(* A merge walk beside an ascending replay: the cursor only moves forward,
   so a whole replay costs O(log n + skipped LSNs it passes) instead of a
   set descent per record. *)
let ascending_mem t ~from =
  let next = ref (Lsn_set.to_seq_from from t.set ()) in
  let rec mem lsn =
    match !next with
    | Seq.Nil -> false
    | Seq.Cons (l, rest) ->
      let c = Lsn.compare l lsn in
      if c < 0 then begin
        next := rest ();
        mem lsn
      end
      else c = 0
  in
  mem

let count t = Lsn_set.cardinal t.set
let to_list t = Lsn_set.elements t.set
let gc_upto t lsn = t.set <- Lsn_set.filter (fun l -> Lsn.(l > lsn)) t.set
let clear t = t.set <- Lsn_set.empty
