type kind = Magnetic | Ssd | Memory

type t = { kind : kind; force : Distribution.t; bandwidth : float }

(* Calibration: the paper's magnetic-log write latency sits at ~40 ms under
   light load because the primitive log manager triggers file-system metadata
   seeks (§C); an SSD force is ~0.25 ms; a memory "force" is a bounds-checked
   append. Values are means of shifted-exponential service times. *)
let create kind =
  let force, bandwidth =
    match kind with
    | Magnetic ->
      (Distribution.Shifted_exponential { base = 17_000.0; mean_extra = 2_000.0 }, 80e6)
    | Ssd ->
      (Distribution.Shifted_exponential { base = 220.0; mean_extra = 60.0 }, 250e6)
    | Memory ->
      (Distribution.Shifted_exponential { base = 25.0; mean_extra = 10.0 }, 10e9)
  in
  { kind; force; bandwidth }

let kind t = t.kind
let force_service t = t.force
let write_bandwidth_bytes_per_sec t = t.bandwidth
