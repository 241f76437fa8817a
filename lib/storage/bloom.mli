(** Bloom filter over row keys, attached to each SSTable so point reads skip
    tables that cannot contain the key (Bigtable-style, §4.1). *)

type t

val create : expected:int -> ?false_positive_rate:float -> unit -> t
(** Sizes the bit array and hash count for [expected] insertions at the
    target false-positive rate (default 1%). *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** Never a false negative. *)
