(** Cluster assembly: network, coordination service, nodes, and clients
    wired onto one simulation engine — the deployment of Figure 2. *)

type t

val create : ?planted_hole_ack_bug:bool -> Sim.Engine.t -> Config.t -> t
(** Builds (but does not start) the cluster: creates the coordination
    service, bootstraps its range directories, and instantiates the nodes.
    [?planted_hole_ack_bug] (default [false]) is a fault plant for chaos
    fixtures: every follower acks past loss-induced log holes, the bug the
    hole-aware ack fixed ({!Cohort.ctx}). *)

val start : t -> unit
(** Boot every node; leader elections begin immediately. *)

val run_until_ready : ?timeout:Sim.Sim_time.span -> t -> bool
(** Advance the simulation until every range has an open leader (or the
    timeout, default 60 simulated seconds, expires). *)

val engine : t -> Sim.Engine.t

val config : t -> Config.t

val partition : t -> Partition.t

val net : t -> Message.t Sim.Network.t

val zk_server : t -> Coord.Zk_server.t

val trace : t -> Sim.Trace.t
(** The cluster-wide structured trace (ring buffer sized by
    [Config.trace_capacity]); shared by nodes, cohorts, clients, the
    network, and the coordination service. *)

val flight : t -> Sim.Trace.Flight.t
(** The cluster-wide outlier flight recorder: every client created through
    {!new_client} reports its completed requests here, and each 1 s
    window's top [Config.outlier_top_k] slowest keep their trace events
    pinned past ring eviction (export with
    {!Sim.Trace_export.outliers_to_json}). *)

val metrics : t -> Sim.Metrics.Registry.t
(** The cluster metrics registry. [create] registers the cluster-wide
    [trace_dropped] gauge (ring-buffer evictions) and per-node gauges
    ([wal_volatile_bytes] and, per hosted range [r<N>], [r<N>_log_records]
    (durable [Write] records the log retains), [r<N>_memtable_bytes], [r<N>_sstable_count], [r<N>_commit_queue_depth],
    [r<N>_reply_cache_size], [r<N>_cache_hits], [r<N>_cache_misses],
    [r<N>_cache_evictions]); {!start} begins sampling them every
    [Config.metrics_sample_period]. *)

val node : t -> int -> Node.t

val nodes : t -> Node.t array

val add_node : t -> int
(** Scale-out (§10): create and start a fresh node on the running cluster,
    returning its id. The node hosts nothing until a replica migration
    ({!request_join}) or range split makes it a cohort member. *)

val request_join : t -> range:int -> joiner:int -> ?remove:int -> unit -> bool
(** Ask the range's current leader to migrate a replica: catch [joiner] up
    like any follower (one bulk round of the store while writes go on, then
    the final round), then commit the membership change that swaps it in
    (and [remove] out, when given). Asynchronous; [false] if no open leader
    was found or one is already mid-migration — retry. *)

val request_split : t -> range:int -> bool
(** Ask the range's current leader to split the range at its median key.
    Asynchronous, like {!request_join}. *)

val new_client : t -> Client.t
(** Clients route on their own {!Partition.copy} of the table and re-fetch
    the published /layout znode whenever a server answers [Wrong_range]. *)

val leader_of : t -> range:int -> int option
(** Ground truth for tests: the node currently acting as the range's open
    leader, if any. *)

val is_ready : t -> bool

type read_path_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  sstables_skipped : int;
  sstables_probed : int;
  compactions : int;
  full_compactions : int;
  max_compaction_input_bytes : int;
  total_compaction_input_bytes : int;
  max_store_bytes_at_compaction : int;
  tables_per_node : (int * int list) list;
      (** per node, the SSTable count of each hosted cohort *)
}
(** Cluster-wide read-path accounting, summed (or maxed, for the
    [max_*_bytes] fields) over every cohort store. Counters are cumulative;
    benchmark series take before/after deltas. *)

val read_path_stats : t -> read_path_stats

val set_lease_enabled : t -> bool -> unit
(** Flip the cluster between lease-served strong reads ([true], the
    default) and the per-read quorum-guard fallback ([false]) at runtime —
    the bench's leased-vs-unleased A/B switch, usable without rebuilding or
    re-preloading the cluster, and the only way to run unleased. The switch
    is one flag every replica reads, so it also reaches replicas hosted
    later (a split child, a migration's joiner). *)

type read_serve_stats = Cohort.read_stats = {
  mutable leased : int;  (** strong reads served locally under a live lease *)
  mutable guarded : int;  (** strong reads served via a read-index quorum round *)
  mutable lease_rejects : int;  (** strong reads refused because the lease lapsed *)
  mutable guard_fails : int;  (** guard rounds abandoned without a quorum *)
  mutable leader_timeline : int;  (** timeline reads served by the leader *)
  mutable follower_timeline : int;  (** timeline reads served by a follower *)
  mutable token_waits : int;  (** timeline reads parked waiting for a token's LSN *)
  mutable token_redirects : int;  (** parked reads redirected at the staleness bound *)
}
(** Cluster-wide read-serve accounting. Counters are cumulative over the
    cluster's lifetime: a crash or a migration that retires a replica does
    not take its counts away. Benchmark series take before/after deltas. *)

val read_serve_stats : t -> read_serve_stats
(** A copy of the counters, so a snapshot does not move as reads go on. *)

val write_phases : t -> Sim.Metrics.Write_phases.t
(** The per-phase write-path breakdown of every write any replica led to
    commit over the cluster's lifetime, retired replicas included — the
    data behind the write-latency decomposition in [BENCH_*.json]. This is
    the live record, not a copy: it keeps growing as writes commit. *)

val largest_bulk_bytes : t -> int
(** Wire bytes of the largest migration bulk round ({!request_join}) any
    leader has shipped: one message, so it holds the leader's NIC for its
    whole transfer. *)

val crash_node : t -> int -> unit

val restart_node : t -> int -> unit

val set_zk_reachable : t -> int -> bool -> unit
(** Cut (false) or heal (true) one node's link to the coordination service,
    leaving the data network untouched (see {!Node.set_zk_reachable}). *)

val failure_targets : t -> Sim.Failure.target list

val registered_nodes : t -> int list
(** Nodes currently registered in the coordination service's group-membership
    directory (§4.2) — live sessions with an ephemeral /nodes/<id> znode.
    Lags crashes by the session timeout, exactly as the failure detector does. *)

val pp_status : Format.formatter -> t -> unit
(** Operator view: per-range roles, commit points, and the live-node set. *)
