(** Logical log truncation (§6.1.1).

    A follower's log cannot be physically truncated at f.cmt because the log
    is shared with other cohorts, so LSNs of discarded (never-committed)
    records are remembered in a skipped-LSN list kept on stable storage;
    local recovery consults it before re-applying records. *)

type t

val create : unit -> t

val add : t -> Lsn.t list -> unit

val mem : t -> Lsn.t -> bool

val ascending_mem : t -> from:Lsn.t -> Lsn.t -> bool
(** [ascending_mem t ~from] is {!mem} over the set as it is now, restricted
    to LSNs [>= from], for queries made in non-decreasing LSN order — the
    order of a log replay. Each query advances a cursor instead of
    descending the set. *)

val count : t -> int

val to_list : t -> Lsn.t list
(** Ascending. *)

val gc_upto : t -> Lsn.t -> unit
(** Forget skipped LSNs [<=] the argument — managed and garbage-collected
    along with the log files they shadow. *)

val clear : t -> unit
