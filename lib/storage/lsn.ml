type t = { epoch : int; seq : int }

let zero = { epoch = 0; seq = 0 }
let make ~epoch ~seq = { epoch; seq }

let compare a b =
  match Int.compare a.epoch b.epoch with 0 -> Int.compare a.seq b.seq | c -> c

let equal a b = compare a b = 0
let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
let ( >= ) a b = compare a b >= 0
let ( > ) a b = compare a b > 0
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b

let diff_sorted a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | x :: a', y :: b' ->
      let c = compare x y in
      if Stdlib.( < ) c 0 then go (x :: acc) a' b
      else if c = 0 then go acc a' b
      else go acc a b'
  in
  go [] a b

let next t = { t with seq = t.seq + 1 }
let with_epoch ~epoch t = { t with epoch }
let pp ppf t = Format.fprintf ppf "%d.%d" t.epoch t.seq
let to_string t = String.concat "." [ string_of_int t.epoch; string_of_int t.seq ]

let of_string s =
  match String.index_opt s '.' with
  | None -> None
  | Some i -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some epoch, Some seq -> Some { epoch; seq }
    | _ -> None)
