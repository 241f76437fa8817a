(** Measurement collection: latency histograms and counters.

    A {!Histogram.t} stores raw samples (microseconds) so exact means and
    percentiles can be computed afterwards — simulation run lengths keep the
    sample counts modest. *)

module Histogram : sig
  type t

  val create : ?name:string -> unit -> t

  val name : t -> string

  val record : t -> float -> unit
  (** Record one sample in microseconds. *)

  val record_span : t -> Sim_time.span -> unit

  val count : t -> int

  val mean : t -> float
  (** 0.0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t 0.99]; nearest-rank on the sorted samples. 0.0 if empty.
      The sorted view is cached and invalidated by {!record}, so calling
      several percentiles in a row sorts once; samples themselves stay in
      insertion order. *)

  val samples : t -> float list
  (** Raw samples in insertion order. *)

  val min : t -> float

  val max : t -> float

  val stddev : t -> float

  val clear : t -> unit

  val merge : t -> t -> t
  (** Fresh histogram with both sample sets. *)

  val pp_summary : Format.formatter -> t -> unit

  val sum : t -> float
  (** Sum of all samples; 0.0 when empty. *)

  val json_summary : t -> Json.t
  (** [{count, mean_us, p50_us, p95_us, p99_us, p999_us, max_us}]. *)
end

(** Per-phase breakdown of the leader-side write path (Figure 4): CPU queue
    wait, local log force, replication wait, and commit apply. Recorded by
    {!Spinnaker.Cohort} for every write it leads; all samples are simulated
    microseconds. *)
module Write_phases : sig
  type t = {
    queue : Histogram.t;  (** client arrival at leader -> CPU grant *)
    force : Histogram.t;  (** log append -> local force durable *)
    replication : Histogram.t;
        (** log append -> in-order quorum reached (commit eligible); runs in
            parallel with [force], so the write's critical path is
            [queue + max(force, replication) + apply] *)
    apply : Histogram.t;  (** commit eligible -> applied and reply issued *)
    transit : Histogram.t;
        (** measured one-way network time of replication messages (the leader
            samples each accepted ack's flight time, followers sample each
            propose's), so [replication] no longer silently lumps wire time
            into quorum wait *)
  }

  val create : unit -> t

  val merge : t -> t -> t

  val clear : t -> unit

  val count : t -> int
  (** Number of writes that completed the full pipeline. *)

  val to_json : t -> Json.t
  (** Keeps the original four field names ([queue]/[force]/[replication]/
      [apply]) and adds a [transit] key. *)

  val pp : Format.formatter -> t -> unit
end

(** Per-segment critical-path attribution histograms, fed by
    [Critpath.record]: one histogram per named latency segment plus the
    end-to-end total. String-keyed so the analyzer owns the segment
    enumeration and this registry just owns the numbers. *)
module Attribution : sig
  type t

  val create : unit -> t

  val record : t -> segment:string -> float -> unit
  (** Add one sample (µs) to the named segment's histogram, creating it on
      first use. *)

  val record_total : t -> float -> unit
  (** Add one end-to-end request latency sample (µs). *)

  val count : t -> int
  (** Requests recorded via {!record_total}. *)

  val segments : t -> (string * Histogram.t) list
  (** In first-use order. *)

  val total : t -> Histogram.t

  val dominant : t -> string option
  (** The segment owning the largest share of total attributed time; [None]
      when nothing was recorded. *)

  val to_json : t -> Json.t
  (** [{requests, dominant, total, segments: {<name>: {sum_us, share,
      mean_us, p50_us, p99_us, p999_us}}}]. *)

  val pp : Format.formatter -> t -> unit
end

module Counter : sig
  type t

  val create : ?name:string -> unit -> t

  val name : t -> string

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int

  val clear : t -> unit
end

(** A named per-node gauge: a [unit -> int] callback sampled by the owning
    {!Registry}'s sim-time ticker into a capped [(µs, value)] time series. *)
module Gauge : sig
  type t

  val name : t -> string

  val node : t -> int

  val read : t -> int
  (** Invoke the callback now (does not record a point). *)

  val points : t -> (int * int) list
  (** [(sim-time µs, value)] pairs, oldest first. *)

  val point_count : t -> int

  val last : t -> (int * int) option

  val dropped : t -> int
  (** Points discarded once the per-gauge cap was reached (oldest first). *)

  val to_json : t -> Json.t
  (** [{name, node, dropped_points, points: [[ts_us, value], ...]}]. *)
end

(** Central instrument registry for one cluster: gauges registered per node,
    create-or-get named counters and histograms, and a periodic sim-time
    sampler that turns gauge reads into time series for [BENCH_*.json] and
    the Perfetto exporter's counter tracks. *)
module Registry : sig
  type t

  val create : ?max_points_per_gauge:int -> Engine.t -> t
  (** [max_points_per_gauge] caps each gauge's retained series (default
      4096); older points are dropped FIFO. *)

  val register_gauge : t -> node:int -> name:string -> (unit -> int) -> Gauge.t

  val counter : t -> name:string -> Counter.t
  (** Create-or-get by name. *)

  val histogram : t -> name:string -> Histogram.t
  (** Create-or-get by name. *)

  val gauges : t -> Gauge.t list
  (** In registration order. *)

  val counters : t -> Counter.t list

  val histograms : t -> Histogram.t list

  val sample : t -> unit
  (** Record one point per gauge at the engine's current time. *)

  val samples_taken : t -> int

  val start_sampling : t -> period:Sim_time.span -> unit
  (** Start the periodic sampler (idempotent). The ticker reschedules itself
      forever, so drive the engine with [run_for]/[run_until], not [run]. *)

  val to_json : t -> Json.t
  (** [{samples_taken, gauges, counters, histograms}]. *)
end

type run_stats = {
  throughput_per_sec : float;  (** completed operations / measured seconds *)
  mean_latency_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  completed : int;
  errors : int;
}

val run_stats_of :
  latency:Histogram.t -> errors:int -> duration:Sim_time.span -> run_stats

val pp_run_stats : Format.formatter -> run_stats -> unit

val json_of_run_stats : run_stats -> Json.t
(** [{throughput_per_sec, mean_ms, p50_ms, p95_ms, p99_ms, completed,
    errors}]. *)

type net_stats = {
  net_sent : int;  (** [send] calls, whatever became of the message *)
  net_in_flight : int;  (** copies scheduled for delivery that have not arrived *)
  net_delivered : int;
  net_dropped_down : int;  (** sender or receiver process down *)
  net_dropped_partitioned : int;  (** directed link blocked by a partition *)
  net_dropped_lost : int;  (** random in-flight loss on a faulty link *)
  net_duplicated : int;
  net_bytes : int;
}
(** Network delivery counters broken down by drop cause; produced by
    [Network.stats] so experiments can report loss vs partition drops. Each
    counter is kept where its event happens, so at every instant
    [sent + duplicated = delivered + dropped + in_flight], with [dropped]
    the sum of the three causes. *)

val json_of_net_stats : net_stats -> Json.t
(** [{delivered, dropped_down, dropped_partitioned, dropped_lost,
    duplicated, bytes}] — the per-cause drop breakdown audit reports pair
    with the nemesis exposure counters. [sent] and [in_flight] only serve
    the accounting identity and are left out. *)
