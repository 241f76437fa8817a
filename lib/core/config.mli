(** Cluster and protocol configuration.

    Defaults mirror the paper's setup (§C): 10 nodes, 3-way replication, a
    dedicated magnetic logging disk per node, a 1-GbE rack network, a
    2-second Zookeeper session timeout, and a 1-second commit period.

    [t] holds only what some experiment varies; figures every run shares
    are constants, here or in the one module that reads them. *)

type t = {
  nodes : int;
  key_space : int;  (** keys are zero-padded integers in [0, key_space) *)
  commit_period : Sim.Sim_time.span;
      (** interval between asynchronous commit messages (§5) *)
  session_timeout : Sim.Sim_time.span;  (** Zookeeper failure-detection timeout *)
  disk : Sim.Disk_model.kind;  (** logging device *)
  wal_max_batch : int;  (** group-commit batch bound; 1 disables group commit *)
  piggyback_commits : bool;
      (** piggy-back commit messages on proposes (§D.1 optimisation) *)
  flush_bytes : int;  (** memtable flush threshold *)
  row_cache_capacity : int;  (** LRU row-cache entries per store; 0 disables *)
  value_bytes : int;  (** payload size; the paper uses 4 KB *)
  client_timeout : Sim.Sim_time.span;  (** client retry timeout *)
  metrics_sample_period : Sim.Sim_time.span;
      (** gauge sampling interval for the cluster metrics registry *)
  trace_capacity : int;  (** trace ring-buffer capacity (events retained) *)
  outlier_top_k : int;
      (** flight recorder: slowest requests pinned per 1 s window (0 disables) *)
  migration_timeout : Sim.Sim_time.span;
      (** leader-side watchdog: abort a migration stuck in catch-up, or a
          split whose coordination chain has not reached its drain *)
  seed : int;
}

val default : t

val replication : int
(** N, the cohort size: 3 throughout the paper. *)

val majority : int
(** Quorum size: [replication / 2 + 1]. *)

val read_service_us : float
(** CPU cost, in µs, to serve a read that misses the row cache. *)

val write_service_us : float
(** Leader CPU cost, in µs, to process a write. *)
