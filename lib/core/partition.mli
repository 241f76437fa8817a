(** Dynamic key-range routing table (§4, §10).

    The cluster starts from the chained-declustering seed layout — one base
    range per node, node [i]'s base range replicated on the next
    [replication - 1] nodes (Figure 2) — but ranges can split and cohort
    membership can change at runtime. Each range is a descriptor
    [{id; lo; hi; members}]; descriptors tile the key space. The table
    carries a monotone [version]: mutations bump it, and stale copies (e.g.
    a client's cached routing table) are refreshed from the serialized
    layout published on ZooKeeper via [update_from_string].

    Keys are zero-padded decimal strings so lexicographic order matches
    numeric order. *)

type desc = {
  id : int;
  lo : Storage.Row.key;
  hi : Storage.Row.key;  (** exclusive *)
  members : int list;  (** primary first *)
}

type t

val create : nodes:int -> replication:int -> key_space:int -> t
(** The seed layout: ranges [0 .. nodes-1], equal-width, chained
    declustering. Identical to the original static math. *)

val ranges : t -> int
(** Number of key ranges (= number of nodes at creation; grows on split). *)

val replication : t -> int
val key_space : t -> int

val version : t -> int
(** Monotone layout version; bumped by every successful mutation. *)

val range_ids : t -> int list
(** All current range ids, in key order. *)

val descs : t -> desc list
(** All descriptors, sorted by [lo]. *)

val mem_range : t -> range:int -> bool

val copy : t -> t
(** An independent snapshot (for client-side caching). *)

val key_of_int : t -> int -> Storage.Row.key
(** Zero-padded encoding of an integer key. *)

val route : t -> Storage.Row.key -> int
(** The range id owning the key. *)

val cohort : t -> range:int -> int list
(** The nodes replicating the range, primary first. Raises on unknown
    range. *)

val primary : t -> range:int -> int

val ranges_of_node : t -> node:int -> int list
(** The ranges whose cohorts include the node (3 with default replication
    on the seed layout). *)

val range_bounds : t -> range:int -> Storage.Row.key * Storage.Row.key
(** [(start, end_exclusive)] of the range, encoded. *)

val set_members : t -> range:int -> int list -> bool
(** Replace a range's cohort (primary first). Returns [false] (and leaves
    the version untouched) if the membership is already exactly that —
    mutations are idempotent so replaying a meta record is harmless. *)

val split : t -> range:int -> at:Storage.Row.key -> new_range:int -> bool
(** Split [range] at key [at]: the parent keeps [[lo, at)], the child
    [new_range] takes [[at, hi)] with the same members. Returns [false] if
    [new_range] already exists (idempotent replay) or [at] is outside the
    parent's open interval. *)

val to_string : t -> string
(** Serialize for the ZK [/layout] znode. *)

val update_from_string : t -> string -> bool
(** Replace the table's contents from a serialized layout if (and only if)
    the serialized version is strictly newer. Returns whether anything
    changed; malformed input is ignored. *)
