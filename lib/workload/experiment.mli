(** Closed-loop load experiments (§C).

    A fixed number of client threads each issue one request at a time; the
    reported "load" on the X axis of the paper's figures is the measured
    request rate, a function of the thread count. Latency samples are taken
    only inside the measurement window (after warm-up). *)

type spec = {
  threads : int;
  write_fraction : float;  (** 0.0 = pure reads, 1.0 = pure writes *)
  conditional : bool;  (** use the conditional-increment path for writes *)
  weights : Generator.weights option;
      (** when set, overrides [write_fraction]/[conditional]: each op is one
          weighted draw over read / write / conditional-increment *)
  key_mode : Generator.key_mode;
  value_bytes : int;
  warmup : Sim.Sim_time.span;
  measure : Sim.Sim_time.span;
}

val default_spec : spec

type outcome = {
  spec : spec;
  all : Sim.Metrics.run_stats;
  reads : Sim.Metrics.run_stats;
  writes : Sim.Metrics.run_stats;
}

val run :
  engine:Sim.Engine.t ->
  key_space:int ->
  make_driver:(unit -> Driver.t) ->
  spec ->
  outcome
(** Runs the engine through warm-up plus measurement. [make_driver] is
    called once per thread (each gets its own protocol client). *)

(** {2 Bank transfers: the multi-key transaction workload}

    A YCSB+T-style closed economy: [accounts] balances strided across the
    whole key space (so transfers cross ranges and exercise real 2PC), each
    teller thread repeatedly moving a small amount between two random
    accounts inside one {!Spinnaker.Txn.run}. Concurrent read-only snapshot
    audits assert the total balance is conserved at every snapshot, and
    everything that committed feeds {!History.check_serializable}. *)

type bank_outcome = {
  transfers_committed : int;
  transfers_aborted : int;  (** conflicts, blocked reads, decided aborts *)
  transfers_unresolved : int;
      (** outcome unknown even after the post-quiesce status query *)
  bank_audits : int;  (** committed snapshot audits (incl. the final one) *)
  bank_violations : (string * string) list;
      (** (invariant, detail): [conservation] and [serializability] *)
  bank_history : History.t;
  transfer_stats : Sim.Metrics.run_stats;  (** committed-transfer latency *)
}

val run_bank :
  engine:Sim.Engine.t ->
  cluster:Spinnaker.Cluster.t ->
  ?accounts:int ->
  ?initial_balance:int ->
  ?threads:int ->
  ?duration:Sim.Sim_time.span ->
  ?audit_period:Sim.Sim_time.span ->
  ?heal:(unit -> unit) ->
  ?quiesce:Sim.Sim_time.span ->
  ?in_flight:int ref ->
  unit ->
  bank_outcome
(** Drive the bank for [duration], call [heal] (fault cleanup, for chaos
    harnesses), quiesce, resolve in-doubt transfers against their
    coordinators, run a final audit, and check serializability.
    [in_flight], when given, tracks the number of transfers mid-protocol —
    chaos harnesses couple it to a hazard crash process so leaders die
    preferentially between prepare and resolve. *)

val json_of_bank : bank_outcome -> Sim.Json.t
(** The [BENCH_txn.json] payload: counts, violations, transfer latency. *)

type sweep_point = { threads : int; outcome : outcome }

val sweep :
  engine:Sim.Engine.t ->
  key_space:int ->
  make_driver:(unit -> Driver.t) ->
  thread_counts:int list ->
  spec ->
  sweep_point list
(** Re-runs [spec] at each thread count (powers of two in the paper). *)

val json_of_outcome : outcome -> Sim.Json.t
(** [{threads, write_fraction, all, reads, writes}] with per-class
    {!Sim.Metrics.json_of_run_stats} summaries. *)

val json_of_sweep : sweep_point list -> Sim.Json.t
(** JSON array of {!json_of_outcome}, one element per thread count — the
    [series] payload of a [BENCH_*.json] file. *)
