(** Simulated time.

    Absolute instants ([t]) and durations ([span]) are integer microsecond
    counts since the start of the simulation. Using integers keeps the event
    queue total order exact and the simulation deterministic. *)

type t
(** An absolute instant in simulated time. *)

type span
(** A duration. Spans may be added to instants and to each other. *)

val zero : t
(** The simulation epoch. *)

val compare : t -> t -> int

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val max : t -> t -> t

val min : t -> t -> t

val add : t -> span -> t

val diff : t -> t -> span
(** [diff a b] is [a - b]; negative if [a] precedes [b]. *)

val span_zero : span

val span_add : span -> span -> span

val span_compare : span -> span -> int

val span_scale : span -> float -> span

val span_max : span -> span -> span

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span

val sec : int -> span

val of_sec_f : float -> span

val of_us_f : float -> span

val to_us : span -> int

val to_ms_f : span -> float

val to_sec_f : span -> float

val at_us : int -> t
(** Absolute instant [n] microseconds after the epoch. *)

val time_to_us : t -> int

val time_to_sec_f : t -> float

val pp : Format.formatter -> t -> unit
