(** Merkle trees over a replica's key space — the Dynamo-style anti-entropy
    primitive (§2.3): two replicas compare trees and transfer only the
    buckets whose hashes differ.

    Coordinates are hashed into a fixed number of buckets (so two replicas'
    trees always align structurally); each bucket's hash covers its
    coordinates and cell contents. [diff] returns every coordinate living in
    a differing bucket: a superset of the truly divergent coordinates (bucket
    collisions can add a few extra), never missing one — exchanging the
    returned cells always reconciles the replicas. *)

type t

val build : (Storage.Row.coord * Storage.Row.cell) list -> t
(** Input must be sorted ascending by coordinate (duplicates not allowed). *)

val equal : t -> t -> bool
(** Root hashes match (identical content with overwhelming probability). *)

val diff : t -> t -> Storage.Row.coord list
(** Union of both sides' coordinates in differing buckets, ascending.
    Complete: contains every coordinate whose cell differs (or exists on
    only one side). Empty iff the trees are equal. *)

val depth : t -> int
(** Depth of the implied binary tree over buckets (message-size model). *)
