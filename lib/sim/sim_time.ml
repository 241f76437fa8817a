type t = int

type span = int

let zero = 0
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let ( >= ) (a : t) b = a >= b
let ( > ) (a : t) b = a > b
let max (a : t) b = Stdlib.max a b
let min (a : t) b = Stdlib.min a b
let add t s = t + s
let diff a b = a - b
let span_zero = 0
let span_add a b = a + b
let span_compare = Int.compare
let span_scale s f = int_of_float (float_of_int s *. f)
let span_max (a : span) b = Stdlib.max a b
let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let of_sec_f f = int_of_float (f *. 1e6)
let of_us_f f = int_of_float f
let to_us s = s
let to_ms_f s = float_of_int s /. 1e3
let to_sec_f s = float_of_int s /. 1e6
let at_us n = n
let time_to_us t = t
let time_to_sec_f t = float_of_int t /. 1e6
let pp ppf t = Format.fprintf ppf "%.6fs" (time_to_sec_f t)
