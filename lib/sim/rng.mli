(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulator draws from an explicit [t] so
    that whole-cluster runs are reproducible from a single seed, and so that
    independent components can be given split, non-overlapping streams. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. *)

val split : t -> t
(** [split t] derives a new independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val gaussian : t -> float
(** Standard normal via Box-Muller. *)
