(** The chaos harness: seeded fault gauntlets, schedule replay, verdicts.

    One run drives keyed serial writers and concurrent strong readers
    through a fault profile, heals, quiesces, and checks the §1.1 claims
    (no lost acked write, no double apply, linearizable strong reads, a
    coherent layout after heal). Instead of asserting, a run returns a
    {!verdict} so the same harness serves the nemesis tests, the ddmin
    shrinker's replay oracle, and the `bench audit` battery. The probes,
    fault generators, heal and checks are exported, so a gauntlet with its
    own fault mix (the scale-out battery) is built from the same parts. *)

type profile = Steady | Crashes | Partitions | Lossy | Mixed
(** [Mixed] composes crash chaos on two nodes, randomized pair partitions,
    lossy links, coordination-service cuts on the last node, and a hazard
    crash process (a 2% chance per 250 ms tick) on a third node. The
    gauntlet never migrates or splits a range. *)

val profile_name : profile -> string

val default_config : Spinnaker.Config.t
(** 5 nodes, SSDs, 200 ms commit period, 500 ms sessions — the nemesis
    suite's configuration. *)

(** {2 Building blocks}

    Each fault generator holds its kind's parameters; every gauntlet and
    audit cell calls these. *)

val crash_chaos : Sim.Failure.t -> until:Sim.Sim_time.t -> Sim.Failure.target list -> unit
(** Independent crash/restart processes: mean 3 s to failure, 1.5 s to
    repair. *)

val partition_chaos :
  Sim.Failure.t -> 'msg Sim.Network.t -> nodes:int list -> until:Sim.Sim_time.t -> unit
(** Random pair partitions, symmetric or one-way: mean 1.5 s apart, 0.7 s
    long. *)

val lossy_chaos :
  ?rate:float ->
  Sim.Failure.t ->
  'msg Sim.Network.t ->
  nodes:int list ->
  until:Sim.Sim_time.t ->
  unit
(** Episodes (mean 0.9 s on, 0.9 s off) of loss and duplication at [rate]
    each (default 0.08) plus 0–400 µs jitter on every link among [nodes]. *)

val heal : Spinnaker.Cluster.t -> unit
(** Lift every partition and link fault, reconnect every node to the
    coordination service, and restart every crashed node. *)

val drive :
  Sim.Engine.t -> ?every:Sim.Sim_time.span -> polls:int -> (unit -> 'a option) -> 'a option
(** Run the engine [every] (default 10 ms) until [poll] answers, at most
    [polls] times; [None] if it never does. *)

type probes
(** A serial writer and, on the first three keys, a strong reader per key,
    recording into one {!History}. *)

val start_probes :
  ?writer:(int -> Spinnaker.Client.t) ->
  Spinnaker.Cluster.t ->
  keys:string list ->
  write_period:Sim.Sim_time.span ->
  read_period:Sim.Sim_time.span ->
  probes
(** Each key's writer puts sequence numbers 1, 2, ... one at a time through
    [writer i] (the [i]th key; default a new client per key). *)

val stop_probes : probes -> unit

val history : probes -> History.t

val acked : probes -> int
(** Acknowledged probe writes, over all keys. *)

val check : Spinnaker.Cluster.t -> probes -> (string -> string -> unit) -> unit
(** Run the check set after heal and quiesce, calling [flag invariant
    detail] for each violation:
    - a final strong read per key closes the history: [lost-acked-write]
      below the acked count, [double-apply] above acked + indeterminate,
      [unavailable-after-heal] if it fails;
    - over every range in {!Spinnaker.Partition.range_ids}: a leader per
      range ([unavailable-after-heal]), no origin committed under two LSNs
      ([double-apply]), no intent left on any replica ([orphaned-intent]),
      [Config.replication] members ([layout-incoherence]);
    - every message sent, plus every duplicate, was delivered, dropped or
      is still in flight ([net-accounting]);
    - per-key [linearizability] of the history. *)

type verdict = {
  seed : int;
  profile : profile;
  planted_bug : bool;
  schedule : Sim.Failure.schedule;  (** the injections that actually fired *)
  exposure : (string * int) list;
  violations : (string * string) list;  (** (invariant, detail), empty = clean *)
  fingerprint : string;  (** {!History.fingerprint} of the recorded history *)
  acked : int;
  indeterminate : int;
  n_writes : int;
  n_reads : int;
  outliers : Sim.Json.t option;
      (** flight-recorder dump ({!Sim.Trace_export.outliers_to_json}) of the
          run's slowest pinned requests, captured when [violations] is
          non-empty — write it next to the failing schedule artifact *)
  net : Sim.Metrics.net_stats;  (** the network's counters at the end of the run *)
}

val failed : verdict -> bool

val json_of_verdict : verdict -> Sim.Json.t
(** The replay artifact: seed, profile, planted-bug flag, violations, and
    the [injections] schedule — everything needed to re-run the failure. *)

val schedule_of_artifact_json : Sim.Json.t -> (Sim.Failure.schedule, string) result
(** Accepts either a bare schedule array or a {!json_of_verdict} object
    (reads its [injections] field) — so [NEMESIS_SCHEDULE] files can be
    minimal-schedule artifacts straight from CI. *)

val run_spinnaker :
  ?track:(Sim.Engine.t -> unit) ->
  ?config:Spinnaker.Config.t ->
  ?profile:profile ->
  ?schedule:Sim.Failure.schedule ->
  ?planted_hole_ack_bug:bool ->
  ?shared_clients:int ->
  ?chaos_for:Sim.Sim_time.span ->
  ?quiesce_for:Sim.Sim_time.span ->
  seed:int ->
  unit ->
  verdict
(** One gauntlet run. By default three keys each have their own serial
    writer client. [?shared_clients:n] instead writes 1,024 keys, each
    serially every 500 ms, through [n] shared clients, so each client issues
    hundreds of ids a second across all ranges; the same version-count and
    log-level exactly-once checks apply. With [?schedule], the seed-driven generators are
    skipped and the explicit schedule replays against a pre-registered
    universe of every crash target and fault toggle the generators could
    have drawn — the replayed run's injection log equals its input.
    [?planted_hole_ack_bug] builds the run's cluster with the pre-fix
    follower ack bug planted ({!Spinnaker.Cluster.create}) for shrinker
    fixtures. [?track] observes the run's engine right after creation, as
    in {!audit_spinnaker}. *)

val shrink :
  ?max_replays:int ->
  (Sim.Failure.schedule option -> verdict) ->
  (verdict * Sim.Failure.schedule * Sim.Shrink.stats) option
(** [shrink run] records [run None]; if it violates an invariant AND a
    replay of the full recorded schedule ([run (Some schedule)]) shows one of
    the same invariant names, ddmin the schedule down to a minimal subset
    whose replay still shows one of them. A replay that only fails some
    other invariant does not count as reproducing: the shrinker keeps the
    failure class. [None] if the run is clean or the failure does not
    replay. *)

val shrink_spinnaker :
  ?config:Spinnaker.Config.t ->
  ?profile:profile ->
  ?planted_hole_ack_bug:bool ->
  ?chaos_for:Sim.Sim_time.span ->
  ?quiesce_for:Sim.Sim_time.span ->
  ?max_replays:int ->
  seed:int ->
  unit ->
  (verdict * Sim.Failure.schedule * Sim.Shrink.stats) option
(** {!shrink} of the seed's gauntlet run. *)

(** {2 The transaction gauntlet}

    Cross-range bank transfers ({!Experiment.run_bank}) under crash chaos
    coupled to the 2PC critical section: a hazard crash process with two
    concurrent slots whose rate multiplies ([×8]) while transfers are
    mid-protocol, so coordinator and participant leaders die together
    between prepare and resolve. After heal + quiesce the verdict checks
    atomicity and conservation (snapshot audits), serializability of the
    committed history, and that no replica holds an orphaned in-doubt
    intent. *)

val run_txn_bank :
  ?config:Spinnaker.Config.t ->
  ?schedule:Sim.Failure.schedule ->
  ?chaos_for:Sim.Sim_time.span ->
  ?quiesce_for:Sim.Sim_time.span ->
  seed:int ->
  unit ->
  verdict
(** One gauntlet run; in the verdict, [acked] counts committed transfers,
    [indeterminate] transfers unresolved even by the post-quiesce status
    query, [n_writes] transactions in the checked history, and [n_reads]
    committed snapshot audits. [quiesce_for] must exceed the in-doubt
    threshold plus a sweep period or live intents will be flagged. *)

val shrink_txn_bank :
  ?config:Spinnaker.Config.t ->
  ?chaos_for:Sim.Sim_time.span ->
  ?quiesce_for:Sim.Sim_time.span ->
  ?max_replays:int ->
  seed:int ->
  unit ->
  (verdict * Sim.Failure.schedule * Sim.Shrink.stats) option
(** {!shrink} of the seed's transaction gauntlet run. *)

(** {2 Audit cells}

    One backend under one fault profile and one workload spec: a throughput/
    latency {!Experiment.outcome} plus fault exposure, network counters, and
    invariant violations — the comparable unit of [BENCH_audit.json]. Each
    backend checks the strongest invariant it actually promises: Spinnaker
    full per-key linearizability, the quorum-configured eventual store
    lost-acked-write only, the master-slave pair its Figure 1 lost-committed-
    write counter. *)

type audit = {
  a_outcome : Experiment.outcome;
  a_exposure : (string * int) list;
  a_net : Sim.Json.t option;  (** [None] for the networkless pair *)
  a_violations : (string * string) list;
}

val audit_spinnaker :
  ?track:(Sim.Engine.t -> unit) ->
  seed:int ->
  config:Spinnaker.Config.t ->
  profile:profile ->
  spec:Experiment.spec ->
  key_space:int ->
  unit ->
  audit
(** [track] observes the cell's engine right after creation (sim-time
    accounting in the bench driver). *)

val audit_eventual :
  ?track:(Sim.Engine.t -> unit) ->
  seed:int ->
  config:Spinnaker.Config.t ->
  profile:profile ->
  spec:Experiment.spec ->
  key_space:int ->
  unit ->
  audit
(** QUORUM reads and writes; network-fault profiles apply, [Mixed] degrades
    to crash chaos. *)

val audit_masterslave :
  ?track:(Sim.Engine.t -> unit) ->
  seed:int ->
  profile:profile ->
  spec:Experiment.spec ->
  key_space:int ->
  unit ->
  audit
(** No network module: every non-steady profile degrades to crash chaos on
    the two replicas. *)
