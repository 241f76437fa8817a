(** Workload key/value generation (§C): 4 KB values, random rows for reads,
    consecutive keys for writes. *)

type key_mode =
  | Uniform_random  (** each op picks a uniformly random row *)
  | Consecutive of { stride : int }
      (** thread [i] walks keys [offset + i], [offset + i + stride], ... *)
  | Hotspot of { fraction_hot : float; hot_keys : int }
      (** skew: [fraction_hot] of ops hit a fixed hot set of [hot_keys] keys
          strided evenly across the key space (so the skew spans every range
          instead of saturating one leader) *)

(** {2 Operation-weight specs}

    The audit battery mixes operations by weight instead of a single
    read/write fraction: weights need not sum to one (they are normalized
    at draw time), and conditional increments are a first-class class so
    figure-14-style compare-and-set load composes with plain reads and
    writes in one run. *)

type op = Read | Write | Cond_incr

type weights = { read : float; write : float; cond_incr : float }

val weights : ?read:float -> ?write:float -> ?cond_incr:float -> unit -> weights
(** Missing weights default to 0. Raises [Invalid_argument] if any weight is
    negative or all are zero. *)

val of_write_fraction : conditional:bool -> float -> weights
(** The legacy spec surface: write fraction [f], conditionally routed
    through the compare-and-set path. *)

val write_fraction_of : weights -> float
(** Fraction of operations that mutate ([write + cond_incr], normalized) —
    what legacy reports called the write fraction. *)

val pick_op : Sim.Rng.t -> weights -> op
(** One draw from the normalized weight distribution. *)

type t

val create :
  rng:Sim.Rng.t ->
  key_space:int ->
  mode:key_mode ->
  thread:int ->
  t
(** The generator encodes keys directly (zero-padded decimal, the same
    encoding as [Partition.key_of_int]) rather than consulting a routing
    table: the key space is fixed while the range layout under it moves as
    splits and migrations commit. *)

val next_key : t -> Storage.Row.key

val account_pair : Sim.Rng.t -> accounts:int -> int * int
(** Two distinct account indices for a bank transfer, uniform over ordered
    pairs; exactly two rng draws. Raises if [accounts < 2]. *)

val value : size:int -> string
(** A deterministic payload of the given size (shared; contents opaque). *)
