type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Shifted_exponential of { base : float; mean_extra : float }
  | Normal of { mean : float; stddev : float }
  | Mixture of (float * t) list

let rec sample t rng =
  let v =
    match t with
    | Constant c -> c
    | Uniform (lo, hi) -> Rng.uniform rng lo hi
    | Exponential mean -> Rng.exponential rng mean
    | Shifted_exponential { base; mean_extra } -> base +. Rng.exponential rng mean_extra
    | Normal { mean; stddev } -> mean +. (stddev *. Rng.gaussian rng)
    | Mixture weighted ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
      let target = Rng.float rng total in
      let rec pick acc = function
        | [] -> invalid_arg "Distribution.Mixture: empty"
        | [ (_, d) ] -> sample d rng
        | (w, d) :: rest -> if acc +. w >= target then sample d rng else pick (acc +. w) rest
      in
      pick 0.0 weighted
  in
  Stdlib.max 0.0 v

let sample_span t rng = Sim_time.of_us_f (sample t rng)
