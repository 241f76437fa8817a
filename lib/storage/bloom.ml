type t = { data : Bytes.t; nbits : int; nhashes : int }

let create ~expected ?(false_positive_rate = 0.01) () =
  let expected = Stdlib.max 1 expected in
  let ln2 = log 2.0 in
  let nbits =
    int_of_float
      (ceil (-.float_of_int expected *. log false_positive_rate /. (ln2 *. ln2)))
  in
  let nbits = Stdlib.max 64 nbits in
  let nhashes =
    Stdlib.max 1 (int_of_float (Float.round (float_of_int nbits /. float_of_int expected *. ln2)))
  in
  { data = Bytes.make ((nbits + 7) / 8) '\000'; nbits; nhashes }

(* Double hashing: h_i = h1 + i*h2 (Kirsch & Mitzenmacher). *)
let hash_pair s =
  let h1 = Hashtbl.hash s in
  let h2 = Hashtbl.hash (s ^ "\x00bloom") in
  (h1, (2 * h2) + 1)

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set t.data byte (Char.chr (Char.code (Bytes.get t.data byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.data byte) land (1 lsl bit) <> 0

let index t h1 h2 i = abs (h1 + (i * h2)) mod t.nbits

let add t s =
  let h1, h2 = hash_pair s in
  for i = 0 to t.nhashes - 1 do
    set_bit t (index t h1 h2 i)
  done

let mem t s =
  let h1, h2 = hash_pair s in
  let rec check i = i >= t.nhashes || (get_bit t (index t h1 h2 i) && check (i + 1)) in
  check 0
