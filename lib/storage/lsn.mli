(** Two-part log sequence numbers.

    An LSN is [epoch.seq] (Appendix B): the epoch is incremented in Zookeeper
    on every leader takeover, guaranteeing that a new leader assigns LSNs
    greater than any previously used in the cohort; the sequence number grows
    within an epoch. LSNs play the role of Paxos proposal numbers. *)

type t = { epoch : int; seq : int }

val zero : t
(** [0.0]: smaller than every assigned LSN. *)

val make : epoch:int -> seq:int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val max : t -> t -> t

val min : t -> t -> t

val diff_sorted : t list -> t list -> t list
(** [diff_sorted a b] is the elements of [a] that are not in [b], in [a]'s
    order, for [a] and [b] both ascending: one merge walk, O(|a| + |b|). *)

val next : t -> t
(** Successor within the same epoch. *)

val with_epoch : epoch:int -> t -> t
(** [with_epoch ~epoch t] keeps the sequence number, replaces the epoch. *)

val pp : Format.formatter -> t -> unit
(** Prints [epoch.seq], matching the paper's notation. *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} ([epoch.seq]); [None] on malformed input. *)
