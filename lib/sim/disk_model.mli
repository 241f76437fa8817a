(** Service-time models for logging devices.

    Mirrors the three logging configurations the paper evaluates: a dedicated
    magnetic SATA disk (§9.2 — with the primitive Cassandra log manager that
    incurs metadata seeks), a FusionIO-style SSD (§D.4), and a main-memory log
    flushed in the background (§D.6.2). *)

type kind =
  | Magnetic  (** dedicated SATA logging disk, write-back cache off *)
  | Ssd  (** NAND flash, no seek penalty *)
  | Memory  (** main-memory log; a force is just an append *)

type t

val create : kind -> t

val kind : t -> kind

val force_service : t -> Distribution.t
(** Service-time distribution of one log force (group commit batches share a
    single force). *)

val write_bandwidth_bytes_per_sec : t -> float
(** Sequential write bandwidth; a group-commit batch additionally pays
    [bytes / bandwidth] on top of the per-force cost. *)
