type t = {
  nodes : int;
  key_space : int;
  commit_period : Sim.Sim_time.span;
  session_timeout : Sim.Sim_time.span;
  disk : Sim.Disk_model.kind;
  wal_max_batch : int;
  piggyback_commits : bool;
  flush_bytes : int;
  row_cache_capacity : int;
  value_bytes : int;
  client_timeout : Sim.Sim_time.span;
  metrics_sample_period : Sim.Sim_time.span;
  trace_capacity : int;
  outlier_top_k : int;
  migration_timeout : Sim.Sim_time.span;
  seed : int;
}

let replication = 3
let majority = (replication / 2) + 1
let read_service_us = 700.0
let write_service_us = 50.0

let default =
  {
    nodes = 10;
    key_space = 100_000;
    commit_period = Sim.Sim_time.sec 1;
    session_timeout = Sim.Sim_time.sec 2;
    disk = Sim.Disk_model.Magnetic;
    wal_max_batch = 24;
    piggyback_commits = false;
    flush_bytes = 4 * 1024 * 1024;
    row_cache_capacity = 4096;
    value_bytes = 4096;
    client_timeout = Sim.Sim_time.ms 400;
    metrics_sample_period = Sim.Sim_time.ms 100;
    trace_capacity = Sim.Trace.default_capacity;
    outlier_top_k = 5;
    migration_timeout = Sim.Sim_time.sec 10;
    seed = 42;
  }
