(** Samplable latency/service-time distributions.

    All parameters and samples are in microseconds (as floats); negative
    samples are clamped to zero. *)

type t =
  | Constant of float
  | Uniform of float * float  (** inclusive low, exclusive high *)
  | Exponential of float  (** mean *)
  | Shifted_exponential of { base : float; mean_extra : float }
      (** [base] plus an exponential tail — typical of disk/network service. *)
  | Normal of { mean : float; stddev : float }
  | Mixture of (float * t) list
      (** Weighted mixture; weights need not sum to one. *)

val sample : t -> Rng.t -> float

val sample_span : t -> Rng.t -> Sim_time.span
