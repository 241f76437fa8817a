(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§9, Appendix D), plus ablations.

   Usage:  dune exec bench/main.exe [-- EXPERIMENT...] [--quick] [--json [PATH]]
             [--trace-out [PATH]]

   Experiments: fig1 fig8 fig9 read paxos-tuning table1 failover tail fig11 fig12
   fig13 fig14 fig15 fig16 scaleout audit txn ablations all (default: all).
   Absolute numbers come from a calibrated simulation (see DESIGN.md); the
   paper-comparable quantity is the *shape* of each series.

   With [--json], each experiment also writes a machine-readable
   [BENCH_<experiment>.json] mirroring the printed tables (per-series
   throughput and latency percentiles, the per-phase write-path breakdown,
   and the simulated seconds the experiment ran). The file holds model
   outputs only, no host timings, so it is a pure function of the code:
   bench/baseline/ checks in the quick outputs and [dune build
   @bench-baseline] diffs against them.

   With [--trace-out], each experiment also writes the last cluster's
   structured trace as Chrome trace-event JSON ([TRACE_<experiment>.json],
   Perfetto-loadable), with registry gauges as counter tracks. The [failover]
   experiment crashes a range leader under load and prints the analyzed
   recovery timeline (see lib/sim/timeline.mli). *)

open Spinnaker

let quick = ref false

let sec_f s = Sim.Sim_time.of_sec_f s
let measure_span () = if !quick then sec_f 2.0 else sec_f 8.0
let warmup_span () = if !quick then sec_f 0.5 else sec_f 2.0

let read_threads () = if !quick then [ 8; 64; 256 ] else [ 4; 8; 16; 32; 64; 128; 256; 384 ]
let write_threads () = if !quick then [ 8; 64; 256 ] else [ 4; 8; 16; 32; 64; 128; 256; 384 ]

let header title = Format.printf "@.=== %s ===@." title

(* --- structured result collection ----------------------------------------
   Experiments append JSON fragments while they print; the driver resets the
   accumulators per experiment and assembles BENCH_<experiment>.json. *)

module J = Sim.Json

let series_acc : J.t list ref = ref []
let extras_acc : (string * J.t) list ref = ref []
let tracked_engines : Sim.Engine.t list ref = ref []

(* The last Spinnaker cluster's trace + metrics registry, for [--trace-out].
   Experiments that build several clusters export the final one. *)
let traced : (Sim.Trace.t * Sim.Metrics.Registry.t) option ref = ref None

let track_engine engine = tracked_engines := engine :: !tracked_engines

(* Simulated seconds consumed by the experiment, over every engine it built. *)
let sim_seconds () =
  List.fold_left
    (fun acc e -> acc +. (float_of_int (Sim.Sim_time.time_to_us (Sim.Engine.now e)) /. 1e6))
    0.0 !tracked_engines

let record_field key v = extras_acc := (key, v) :: !extras_acc

let record_series ?phases ?(extra = []) name points =
  let fields =
    (("name", J.String name) :: extra)
    @ [ ("points", Workload.Experiment.json_of_sweep points) ]
    @
    match phases with
    | Some p -> [ ("write_phases", Sim.Metrics.Write_phases.to_json p) ]
    | None -> []
  in
  series_acc := J.Obj fields :: !series_acc

let print_series name (points : Workload.Experiment.sweep_point list)
    (select : Workload.Experiment.outcome -> Sim.Metrics.run_stats) =
  Format.printf "  %-34s %8s %12s %10s %10s@." name "threads" "load(req/s)" "mean(ms)" "p99(ms)";
  List.iter
    (fun Workload.Experiment.{ threads; outcome } ->
      let s = select outcome in
      Format.printf "  %-34s %8d %12.0f %10.2f %10.2f@." "" threads
        s.Sim.Metrics.throughput_per_sec s.Sim.Metrics.mean_latency_ms s.Sim.Metrics.p99_ms)
    points

(* Print a series and record it for the JSON output; [phases] is the
   cluster's write-path breakdown (printed when it has samples, always
   recorded so the JSON schema is stable). *)
let emit_series ?phases ?extra name points select =
  print_series name points select;
  (match phases with
  | Some p when Sim.Metrics.Write_phases.count p > 0 ->
    Format.printf "  %-34s %a@." "" Sim.Metrics.Write_phases.pp p
  | _ -> ());
  record_series ?phases ?extra name points

(* --- cluster builders --------------------------------------------------- *)

(* Tracing and gauge sampling cost real wall-clock time in the hot loop, so
   clusters are built "lean" by default — trace disabled, gauge sampler off.
   Experiments that analyze their own trace ([failover], [table1]) pass
   [~lean:false], and [--trace-out] forces tracing back on everywhere. *)
let want_trace = ref false

let spin_cluster ?(config = Config.default) ?(lean = true) () =
  let lean = lean && not !want_trace in
  let config =
    if lean then { config with Config.metrics_sample_period = Sim.Sim_time.span_zero }
    else config
  in
  let engine = Sim.Engine.create ~seed:config.Config.seed () in
  track_engine engine;
  let cluster = Cluster.create engine config in
  if lean then Sim.Trace.enable (Cluster.trace cluster) false;
  traced := Some (Cluster.trace cluster, Cluster.metrics cluster);
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then failwith "spinnaker cluster not ready";
  (engine, cluster)

let cas_cluster ?(config = Config.default) () =
  let engine = Sim.Engine.create ~seed:config.Config.seed () in
  track_engine engine;
  let cluster = Eventual.Cas_cluster.create engine config in
  Eventual.Cas_cluster.start cluster;
  (engine, cluster)

let base_spec ?(write_fraction = 0.0) ?(conditional = false)
    ?(key_mode = Workload.Generator.Uniform_random) () =
  {
    Workload.Experiment.default_spec with
    Workload.Experiment.write_fraction;
    conditional;
    key_mode;
    warmup = warmup_span ();
    measure = measure_span ();
  }

let consecutive = Workload.Generator.Consecutive { stride = 257 }

(* Returns the sweep points plus the cluster's accumulated write-path phase
   breakdown (empty for read-only specs). *)
let spin_sweep ?config ~consistent_reads ?(conditional = false) ~spec threads =
  let engine, cluster = spin_cluster ?config () in
  let points =
    Workload.Experiment.sweep ~engine
      ~key_space:(Cluster.config cluster).Config.key_space
      ~make_driver:(fun () ->
        if conditional then Workload.Driver.spinnaker_conditional cluster
        else Workload.Driver.spinnaker cluster ~consistent_reads ())
      ~thread_counts:threads
      { spec with Workload.Experiment.conditional }
  in
  (points, Cluster.write_phases cluster)

let cas_sweep ?config ~read_level ~write_level ~spec threads =
  let engine, cluster = cas_cluster ?config () in
  Workload.Experiment.sweep ~engine
    ~key_space:(Eventual.Cas_cluster.config cluster).Config.key_space
    ~make_driver:(fun () -> Workload.Driver.cassandra cluster ~read_level ~write_level ())
    ~thread_counts:threads spec

(* --- Figure 1: master-slave unavailability ------------------------------- *)

let fig1 () =
  header "Figure 1: master-slave replication loses availability (and data)";
  let engine = Sim.Engine.create () in
  track_engine engine;
  let pair = Masterslave.Ms_pair.create engine () in
  let put key =
    let done_ = ref None in
    Masterslave.Ms_pair.put pair ~key ~value:"v" (fun r -> done_ := Some r);
    let rec wait () =
      match !done_ with
      | Some r -> r
      | None ->
        Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
        wait ()
    in
    wait ()
  in
  for i = 1 to 10 do
    ignore (put (Printf.sprintf "k%d" i))
  done;
  Format.printf "  (a) both up:            master LSN=%d  slave LSN=%d@."
    (Masterslave.Ms_pair.committed_lsn pair Masterslave.Ms_pair.Master)
    (Masterslave.Ms_pair.committed_lsn pair Masterslave.Ms_pair.Slave);
  Masterslave.Ms_pair.crash pair Masterslave.Ms_pair.Slave;
  for i = 11 to 20 do
    ignore (put (Printf.sprintf "k%d" i))
  done;
  Format.printf "  (b,c) slave down, master continues to LSN=%d, then master dies@."
    (Masterslave.Ms_pair.committed_lsn pair Masterslave.Ms_pair.Master);
  Masterslave.Ms_pair.crash pair Masterslave.Ms_pair.Master;
  Masterslave.Ms_pair.restart pair Masterslave.Ms_pair.Slave;
  let available = Masterslave.Ms_pair.available_for_writes pair in
  Format.printf "  (d) slave back, master down: available for writes = %b@." available;
  Masterslave.Ms_pair.destroy pair Masterslave.Ms_pair.Master;
  let lost = Masterslave.Ms_pair.lost_writes pair in
  Format.printf "      after permanent master failure: %d committed writes lost@." lost;
  record_field "masterslave"
    (J.Obj
       [
         ("available_for_writes_after_failover", J.Bool available);
         ("lost_writes_after_master_loss", J.Int lost);
       ]);
  Format.printf
    "  contrast: Spinnaker's quorum commit keeps the cohort available through@.\
    \  the same sequence and loses nothing (see the masterslave test suite).@."

(* --- Figure 8: read latency vs load -------------------------------------- *)

let fig8 () =
  header "Figure 8: average read latency vs load (4KB random reads, 10 nodes)";
  let spec = base_spec () in
  let threads = read_threads () in
  let consistent, phases_c = spin_sweep ~consistent_reads:true ~spec threads in
  emit_series ~phases:phases_c "Spinnaker consistent reads" consistent (fun o ->
      o.Workload.Experiment.all);
  let timeline, phases_t = spin_sweep ~consistent_reads:false ~spec threads in
  emit_series ~phases:phases_t "Spinnaker timeline reads" timeline (fun o ->
      o.Workload.Experiment.all);
  emit_series "Cassandra quorum reads"
    (cas_sweep ~read_level:Eventual.Cas_message.Quorum ~write_level:Eventual.Cas_message.Quorum
       ~spec threads)
    (fun o -> o.Workload.Experiment.all);
  emit_series "Cassandra weak reads"
    (cas_sweep ~read_level:Eventual.Cas_message.One ~write_level:Eventual.Cas_message.Quorum
       ~spec threads)
    (fun o -> o.Workload.Experiment.all)

(* --- Figure 9: write latency vs load -------------------------------------- *)

let fig9 () =
  header "Figure 9: average write latency vs load (4KB consecutive keys, magnetic log)";
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let threads = write_threads () in
  let points, phases = spin_sweep ~consistent_reads:true ~spec threads in
  emit_series ~phases "Spinnaker writes" points (fun o -> o.Workload.Experiment.all);
  emit_series "Cassandra quorum writes"
    (cas_sweep ~read_level:Eventual.Cas_message.Quorum ~write_level:Eventual.Cas_message.Quorum
       ~spec threads)
    (fun o -> o.Workload.Experiment.all)

(* --- Table 1: cohort recovery time vs commit period ------------------------ *)

(* A single client's threads write 4KB values into one cohort's key range;
   we kill the leader and measure how long the cohort stays unavailable for
   writes, excluding failure detection (the paper excludes its 2 s Zookeeper
   timeout; we measure from the moment the survivors start electing). *)
let availability_run ~commit_period ~piggyback =
  let config =
    {
      Config.default with
      Config.nodes = 5;
      commit_period;
      piggyback_commits = piggyback;
      session_timeout = Sim.Sim_time.sec 2;
    }
  in
  (* Not lean: the run reads [cohort_open]/[election_start] off the trace. *)
  let engine, cluster = spin_cluster ~config ~lean:false () in
  let client = Cluster.new_client cluster in
  let width = config.Config.key_space / config.Config.nodes in
  let cursor = ref 0 in
  let last_completion = ref Sim.Sim_time.zero in
  let value = Workload.Generator.value ~size:4096 in
  let rec writer () =
    let key = Partition.key_of_int (Cluster.partition cluster) (!cursor mod width) in
    incr cursor;
    Client.put client key "c" ~value (fun _ ->
        last_completion := Sim.Engine.now engine;
        writer ())
  in
  for _ = 1 to 8 do
    writer ()
  done;
  (* Reach steady state: followers lag the leader by up to a commit period. *)
  let settle = Sim.Sim_time.span_add commit_period (Sim.Sim_time.sec 5) in
  Sim.Engine.run_for engine settle;
  let leader = Option.get (Cluster.leader_of cluster ~range:0) in
  (* Crash just before the leader's next commit message, when the followers'
     backlog — the writes the new leader must re-propose — is maximal; this
     is the regime the paper's proportionality describes. *)
  (let t0 =
     match
       List.find_opt
         (fun e -> String.equal e.Sim.Trace.tag "cohort_open" && e.Sim.Trace.cohort = 0)
         (Sim.Trace.events (Cluster.trace cluster))
     with
     | Some e -> e.Sim.Trace.at
     | None -> Sim.Sim_time.zero
   in
   let period_us = Sim.Sim_time.to_us commit_period in
   let elapsed_us = Sim.Sim_time.to_us (Sim.Sim_time.diff (Sim.Engine.now engine) t0) in
   let next_tick = ((elapsed_us / period_us) + 2) * period_us in
   let crash_at = Sim.Sim_time.add t0 (Sim.Sim_time.us (next_tick - 50_000)) in
   Sim.Engine.run_until engine crash_at);
  let t_crash = Sim.Engine.now engine in
  Cluster.crash_node cluster leader;
  (* Run until a write completes after the crash. *)
  let deadline = Sim.Sim_time.add t_crash (Sim.Sim_time.sec 120) in
  let rec wait () =
    if Sim.Sim_time.(!last_completion > t_crash) then ()
    else if Sim.Sim_time.(Sim.Engine.now engine >= deadline) then
      failwith "availability run: no recovery within 120 s"
    else begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 20);
      wait ()
    end
  in
  wait ();
  let trace = Cluster.trace cluster in
  let detection =
    List.filter_map
      (fun e ->
        if
          String.equal e.Sim.Trace.tag "election_start"
          && Sim.Sim_time.(e.Sim.Trace.at > t_crash)
          && e.Sim.Trace.cohort = 0
        then Some e.Sim.Trace.at
        else None)
      (Sim.Trace.events trace)
  in
  let t_detect = match detection with t :: _ -> t | [] -> t_crash in
  Sim.Sim_time.to_sec_f (Sim.Sim_time.diff !last_completion t_detect)

let table1 () =
  header "Table 1: cohort recovery time vs commit period (failure detection excluded)";
  let periods = if !quick then [ 1; 5 ] else [ 1; 5; 10; 15 ] in
  let results =
    List.map
      (fun p -> (p, availability_run ~commit_period:(Sim.Sim_time.sec p) ~piggyback:false))
      periods
  in
  Format.printf "  %-22s" "Commit Period (sec)";
  List.iter (fun (p, _) -> Format.printf "%8d" p) results;
  Format.printf "@.  %-22s" "Recovery Time (sec)";
  List.iter (fun (_, r) -> Format.printf "%8.1f" r) results;
  Format.printf "@.";
  record_field "recovery_vs_commit_period"
    (J.List
       (List.map
          (fun (p, r) ->
            J.Obj [ ("commit_period_sec", J.Int p); ("recovery_sec", J.Float r) ])
          results))

(* --- Failover timeline: crash-the-leader under full tracing ---------------- *)

(* Drives range 0 with a small write load, crashes its leader, restarts it,
   and runs the causal trace through the timeline analyzer: unavailability is
   crash -> first re-committed client write; catch-up is restart ->
   follower_active. With [--trace-out] the whole run is inspectable in
   Perfetto. *)
let failover () =
  header "Failover timeline: crash the range-0 leader, analyze the trace";
  let config =
    {
      Config.default with
      Config.nodes = 5;
      session_timeout = Sim.Sim_time.sec 2;
      trace_capacity = 1 lsl 20;
      metrics_sample_period = Sim.Sim_time.ms 50;
    }
  in
  (* Not lean: the whole point is the analyzed trace. *)
  let engine, cluster = spin_cluster ~config ~lean:false () in
  let client = Cluster.new_client cluster in
  let width = config.Config.key_space / config.Config.nodes in
  let cursor = ref 0 in
  let value = Workload.Generator.value ~size:1024 in
  let rec writer () =
    let key = Partition.key_of_int (Cluster.partition cluster) (!cursor mod width) in
    incr cursor;
    Client.put client key "c" ~value (fun _ -> writer ())
  in
  for _ = 1 to 8 do
    writer ()
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec (if !quick then 2 else 5));
  let leader = Option.get (Cluster.leader_of cluster ~range:0) in
  let t_crash = Sim.Engine.now engine in
  Cluster.crash_node cluster leader;
  (* Run until a client write commits under the new leader — the same
     [phase.apply] span end the analyzer takes as the end of the outage. *)
  let committed_since t0 () =
    List.exists
      (fun e ->
        e.Sim.Trace.cohort = 0
        && e.Sim.Trace.kind = Sim.Trace.Span_end
        && Sim.Sim_time.(e.Sim.Trace.at > t0))
      (Sim.Trace.find (Cluster.trace cluster) ~tag:"phase.apply")
  in
  let deadline = Sim.Sim_time.add t_crash (Sim.Sim_time.sec 60) in
  let rec wait_write () =
    if committed_since t_crash () then ()
    else if Sim.Sim_time.(Sim.Engine.now engine >= deadline) then
      failwith "failover: no post-crash write within 60 s"
    else begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 20);
      wait_write ()
    end
  in
  wait_write ();
  (* Bring the old leader back as a follower and let catch-up finish. *)
  Cluster.restart_node cluster leader;
  let t_restart = Sim.Engine.now engine in
  let caught_up () =
    List.exists
      (fun e ->
        e.Sim.Trace.cohort = 0 && e.Sim.Trace.node = leader
        && Sim.Sim_time.(e.Sim.Trace.at > t_restart))
      (Sim.Trace.find (Cluster.trace cluster) ~tag:"follower_active")
  in
  let catchup_deadline = Sim.Sim_time.add t_restart (Sim.Sim_time.sec 60) in
  let rec wait_catchup () =
    if caught_up () then ()
    else if Sim.Sim_time.(Sim.Engine.now engine >= catchup_deadline) then
      Format.printf "  (restarted leader did not finish catch-up within 60 s)@."
    else begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
      wait_catchup ()
    end
  in
  wait_catchup ();
  (* One more second so the gauge sampler captures the recovered state. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  let trace = Cluster.trace cluster in
  let timeline =
    Sim.Timeline.analyze ~leader ~events:(Sim.Trace.events trace) ~crash_at:t_crash ~cohort:0 ()
  in
  Format.printf "%a" Sim.Timeline.pp timeline;
  Format.printf "  trace: %d events retained, %d dropped@." (Sim.Trace.length trace)
    (Sim.Trace.dropped trace);
  record_field "failover_timeline" (Sim.Timeline.to_json timeline);
  record_field "crashed_leader" (J.Int leader)

(* --- Tail attribution: critical-path segment breakdown vs load --------------- *)

(* One fresh cluster per load level runs a closed-loop write workload under
   full tracing; Sim.Critpath then partitions every committed write's
   client-observed latency into disjoint critical-path segments. The
   experiment asserts the bookkeeping — segments sum to the measured latency
   within 1% on every request — and the physics: the dominant segment must
   shift as load grows (a tail that is all log force at 1 writer must not
   still be all log force at 48). The top level's flight recorder dumps its
   pinned outliers as a Perfetto flow-event trace (TRACE_outliers.json). *)
let tail () =
  header "Tail attribution: critical-path segments vs load";
  let loads = if !quick then [ 1; 8; 256 ] else [ 1; 4; 12; 48; 256 ] in
  let span = if !quick then sec_f 3.0 else sec_f 8.0 in
  let cdf_json h =
    J.List
      (List.map
         (fun p ->
           J.Obj
             [ ("p", J.Float p); ("us", J.Float (Sim.Metrics.Histogram.percentile h p)) ])
         [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 0.995; 0.999; 1.0 ])
  in
  let outlier_json = ref None in
  let dominants = ref [] in
  let levels =
    List.map
      (fun threads ->
        (* A big ring so the whole measured window survives for analysis. *)
        let config = { Config.default with Config.trace_capacity = 1 lsl 20 } in
        let engine, cluster = spin_cluster ~config ~lean:false () in
        let client = Cluster.new_client cluster in
        let cursor = ref 0 in
        let value = Workload.Generator.value ~size:1024 in
        let rec writer () =
          let key =
            Partition.key_of_int (Cluster.partition cluster)
              (!cursor mod config.Config.key_space)
          in
          incr cursor;
          Client.put client key "c" ~value (fun _ -> writer ())
        in
        for _ = 1 to threads do
          writer ()
        done;
        Sim.Engine.run_for engine span;
        let trace = Cluster.trace cluster in
        let analysis =
          Sim.Critpath.analyze ~dropped:(Sim.Trace.dropped trace)
            ~events:(Sim.Trace.events trace) ()
        in
        if analysis.Sim.Critpath.requests = [] then
          failwith (Printf.sprintf "tail: no analyzable writes at %d writers" threads);
        let attr = Sim.Metrics.Attribution.create () in
        let worst = ref 0.0 in
        List.iter
          (fun r ->
            let e = Sim.Critpath.conservation_error r in
            if e > !worst then worst := e;
            Sim.Critpath.record attr r)
          analysis.Sim.Critpath.requests;
        if !worst > 0.01 then
          failwith
            (Printf.sprintf "tail: conservation violated at %d writers (max error %.4f)"
               threads !worst);
        let dominant =
          Option.value ~default:"?" (Sim.Metrics.Attribution.dominant attr)
        in
        dominants := dominant :: !dominants;
        let total = Sim.Metrics.Attribution.total attr in
        let pct p = Sim.Metrics.Histogram.percentile total p /. 1000.0 in
        Format.printf
          "  %4d writers: %5d writes  p50 %8.2f ms  p99 %8.2f ms  p99.9 %8.2f ms  \
           dominant %s@."
          threads (Sim.Metrics.Attribution.count attr) (pct 0.50) (pct 0.99) (pct 0.999)
          dominant;
        Format.printf "  %4s %a@." "" Sim.Metrics.Attribution.pp attr;
        (* The highest load level's flight recorder ships the outlier dump. *)
        outlier_json := Some (Sim.Trace_export.outliers_to_json (Cluster.flight cluster));
        J.Obj
          [
            ("threads", J.Int threads);
            ("writes", J.Int (Sim.Metrics.Attribution.count attr));
            ("dominant", J.String dominant);
            ("max_conservation_error", J.Float !worst);
            ("latency_cdf", cdf_json total);
            ("attribution", Sim.Metrics.Attribution.to_json attr);
            ("critpath", Sim.Critpath.to_json analysis);
          ])
      loads
  in
  record_field "levels" (J.List levels);
  let order = List.rev !dominants in
  Format.printf "  dominant segment by load: %s@." (String.concat " -> " order);
  record_field "dominants" (J.List (List.map (fun d -> J.String d) order));
  if List.length (List.sort_uniq String.compare order) < 2 then
    failwith "tail: dominant segment never shifted across load levels";
  (* Always emit the outlier trace for Perfetto. It must round-trip through
     the JSON parser — Perfetto is stricter than we are. *)
  (match !outlier_json with
  | None -> ()
  | Some json ->
    let path = "TRACE_outliers.json" in
    J.to_file path json;
    (match J.of_file path with
    | Ok _ -> Format.printf "  wrote %s (outlier flight-recorder trace)@." path
    | Error e -> failwith (Printf.sprintf "TRACE_outliers.json does not round-trip: %s" e)));
  (* Read attribution: the same conservation bar over the read path. One
     cluster runs writers plus strong and timeline readers; mid-window the
     lease switch flips off, so the trace holds leased reads, guarded reads
     (read.guard sub-spans), and token timeline reads (read.wait_lsn
     sub-spans when a follower parks). Every analyzed read must conserve
     within 1%, and the unleased half guarantees at least one guard-segment
     request. *)
  let config =
    {
      Config.default with
      Config.trace_capacity = 1 lsl 20;
      (* Fast commits so parked token reads flush inside the staleness
         bound instead of all redirecting to the leader. *)
      commit_period = Sim.Sim_time.ms 20;
      piggyback_commits = true;
    }
  in
  let engine, cluster = spin_cluster ~config ~lean:false () in
  let client = Cluster.new_client cluster in
  let value = Workload.Generator.value ~size:256 in
  let key i = Partition.key_of_int (Cluster.partition cluster) (i mod 1000) in
  let cursor = ref 0 in
  let rec writer () =
    incr cursor;
    Client.put client (key !cursor) "c" ~value (fun _ -> writer ())
  in
  let rec strong_reader () =
    incr cursor;
    Client.get client ~consistent:true (key !cursor) "c" (fun _ -> strong_reader ())
  in
  let rec timeline_reader () =
    incr cursor;
    Client.get client ~consistent:false (key !cursor) "c" (fun _ -> timeline_reader ())
  in
  for _ = 1 to 4 do
    writer ()
  done;
  for _ = 1 to 8 do
    strong_reader ();
    timeline_reader ()
  done;
  let half = if !quick then sec_f 1.0 else sec_f 2.0 in
  Sim.Engine.run_for engine half;
  Cluster.set_lease_enabled cluster false;
  Sim.Engine.run_for engine half;
  Cluster.set_lease_enabled cluster true;
  let trace = Cluster.trace cluster in
  let analysis =
    Sim.Critpath.analyze ~dropped:(Sim.Trace.dropped trace) ~events:(Sim.Trace.events trace) ()
  in
  let seg_of r s = try List.assoc s r.Sim.Critpath.segments with Not_found -> 0.0 in
  let reads =
    List.filter (fun r -> seg_of r Sim.Critpath.Read > 0.0) analysis.Sim.Critpath.requests
  in
  if reads = [] then failwith "tail: no analyzable reads in the read-attribution window";
  let read_attr = Sim.Metrics.Attribution.create () in
  let worst_read = ref 0.0 in
  List.iter
    (fun r ->
      let e = Sim.Critpath.conservation_error r in
      if e > !worst_read then worst_read := e;
      Sim.Critpath.record read_attr r)
    reads;
  if !worst_read > 0.01 then
    failwith
      (Printf.sprintf "tail: read conservation violated (max error %.4f)" !worst_read);
  let count_pos s = List.length (List.filter (fun r -> seg_of r s > 0.0) reads) in
  let guarded = count_pos Sim.Critpath.Guard in
  let waited = count_pos Sim.Critpath.Wait_lsn in
  Format.printf
    "  read attribution: %d reads (%d guarded, %d token-parked), max conservation error %.4f@."
    (List.length reads) guarded waited !worst_read;
  Format.printf "  %4s %a@." "" Sim.Metrics.Attribution.pp read_attr;
  if guarded = 0 then
    failwith "tail: the unleased window produced no guard-segment reads";
  record_field "read_attribution"
    (J.Obj
       [
         ("reads", J.Int (List.length reads));
         ("guarded_reads", J.Int guarded);
         ("token_parked_reads", J.Int waited);
         ("max_conservation_error", J.Float !worst_read);
         ("attribution", Sim.Metrics.Attribution.to_json read_attr);
       ])

(* --- Read path: hot vs uniform key mixes over a preloaded LSM ---------------- *)

(* The Figs. 9-10 regime: read throughput/latency against a real local LSM.
   One cluster is preloaded with enough writes that every cohort carries
   several tiers of SSTables, then the read-only series run on it: hot and
   uniform key mixes, strong and timeline reads, plus the hot strong mix
   with leases flipped off at runtime (every strong read pays a read-index
   quorum round instead of the local lease check). Per point we record the
   row-cache hit rate, SSTables skipped vs probed, and the read-serve
   counter deltas (leased / guarded / follower-served / token waits). A
   final mixed run measures follower offload: writers hand their client a
   read-your-writes token and the timeline reads round-robin over replicas.
   The experiment asserts the headline effects: the hot mix must actually
   hit the cache, hot-key strong-read throughput must be at least 2x the
   uniform mix at the highest thread count, leased strong reads must beat
   the unleased guard path by at least 1.5x at saturation, and followers
   must actually serve timeline token reads in the offload run. *)
let read_exp () =
  header "Read path: hot vs uniform key mix, strong vs timeline reads, leases on/off";
  let config =
    {
      Config.default with
      (* A smaller key space and flush threshold so the preload produces a
         populated, multi-tier LSM in bounded simulated time; the row cache
         is deliberately smaller than one range's share of the key space so
         only a skewed mix can live in it. *)
      Config.key_space = 20_000;
      flush_bytes = 64 * 1024;
      value_bytes = 1024;
      row_cache_capacity = 256;
      (* Keep followers fresh (commits land within ~100 ms of the leader) so
         timeline token reads can be absorbed by followers instead of
         bouncing off the read_lsn_wait staleness bound. *)
      commit_period = Sim.Sim_time.ms 100;
      piggyback_commits = true;
    }
  in
  let engine, cluster = spin_cluster ~config () in
  let key_space = config.Config.key_space in
  let preload =
    {
      (base_spec ~write_fraction:1.0 ~key_mode:consecutive ()) with
      Workload.Experiment.threads = 128;
      value_bytes = config.Config.value_bytes;
      warmup = sec_f 0.2;
      measure = (if !quick then sec_f 3.0 else sec_f 8.0);
    }
  in
  ignore
    (Workload.Experiment.run ~engine ~key_space
       ~make_driver:(fun () -> Workload.Driver.spinnaker cluster ~consistent_reads:true ())
       preload);
  let s0 = Cluster.read_path_stats cluster in
  Format.printf
    "  preload: %d compactions (%d full), max merge input %d KB vs max store %d KB@."
    s0.Cluster.compactions s0.Cluster.full_compactions
    (s0.Cluster.max_compaction_input_bytes / 1024)
    (s0.Cluster.max_store_bytes_at_compaction / 1024);
  Format.printf "  tables per node:";
  List.iter
    (fun (n, ts) ->
      Format.printf " n%d=[%s]" n (String.concat "," (List.map string_of_int ts)))
    s0.Cluster.tables_per_node;
  Format.printf "@.";
  let threads = read_threads () in
  let hot_mode = Workload.Generator.Hotspot { fraction_hot = 0.9; hot_keys = 512 } in
  (* (series label, key mode, consistent reads, leases enabled); strong
     series first so the 2x assertion compares like with like, and the
     unleased hot strong series runs over the same preloaded stores with
     only the runtime lease switch flipped. *)
  let series =
    [
      ("hot keys, strong reads", hot_mode, true, true);
      ("uniform keys, strong reads", Workload.Generator.Uniform_random, true, true);
      ("hot keys, strong reads (unleased)", hot_mode, true, false);
      ("hot keys, timeline reads", hot_mode, false, true);
      ("uniform keys, timeline reads", Workload.Generator.Uniform_random, false, true);
    ]
  in
  let read_serve_json (b : Cluster.read_serve_stats) (a : Cluster.read_serve_stats) =
    [
      ("leased_reads", J.Int (a.Cluster.leased - b.Cluster.leased));
      ("guarded_reads", J.Int (a.Cluster.guarded - b.Cluster.guarded));
      ("lease_rejects", J.Int (a.Cluster.lease_rejects - b.Cluster.lease_rejects));
      ("guard_fails", J.Int (a.Cluster.guard_fails - b.Cluster.guard_fails));
      ("leader_timeline", J.Int (a.Cluster.leader_timeline - b.Cluster.leader_timeline));
      ("follower_timeline", J.Int (a.Cluster.follower_timeline - b.Cluster.follower_timeline));
      ("token_waits", J.Int (a.Cluster.token_waits - b.Cluster.token_waits));
      ("token_redirects", J.Int (a.Cluster.token_redirects - b.Cluster.token_redirects));
    ]
  in
  let peak = Hashtbl.create 4 in
  let hot_hit_rate = ref 0.0 in
  List.iter
    (fun (name, key_mode, consistent, leased) ->
      Cluster.set_lease_enabled cluster leased;
      Format.printf "  %-34s %8s %12s %10s %10s %7s@." name "threads" "load(req/s)" "mean(ms)"
        "p99(ms)" "hit%";
      let points =
        List.map
          (fun th ->
            let before = Cluster.read_path_stats cluster in
            let serve0 = Cluster.read_serve_stats cluster in
            let outcome =
              Workload.Experiment.run ~engine
                ~key_space
                ~make_driver:(fun () ->
                  Workload.Driver.spinnaker cluster ~consistent_reads:consistent ())
                {
                  (base_spec ~key_mode ()) with
                  Workload.Experiment.threads = th;
                  value_bytes = config.Config.value_bytes;
                  warmup = sec_f 0.5;
                  measure = measure_span ();
                }
            in
            let after = Cluster.read_path_stats cluster in
            let serve1 = Cluster.read_serve_stats cluster in
            let hits = after.Cluster.cache_hits - before.Cluster.cache_hits in
            let misses = after.Cluster.cache_misses - before.Cluster.cache_misses in
            let hit_rate =
              if hits + misses = 0 then 0.0
              else float_of_int hits /. float_of_int (hits + misses)
            in
            let s = outcome.Workload.Experiment.all in
            Format.printf "  %-34s %8d %12.0f %10.2f %10.2f %7.1f@." "" th
              s.Sim.Metrics.throughput_per_sec s.Sim.Metrics.mean_latency_ms
              s.Sim.Metrics.p99_ms (100.0 *. hit_rate);
            if consistent then begin
              Hashtbl.replace peak (name, th) s.Sim.Metrics.throughput_per_sec;
              if name = "hot keys, strong reads" && hit_rate > !hot_hit_rate then
                hot_hit_rate := hit_rate
            end;
            match Workload.Experiment.json_of_outcome outcome with
            | J.Obj fields ->
              J.Obj
                (fields
                @ [
                    ("cache_hit_rate", J.Float hit_rate);
                    ("cache_hits", J.Int hits);
                    ("cache_misses", J.Int misses);
                    ( "cache_evictions",
                      J.Int (after.Cluster.cache_evictions - before.Cluster.cache_evictions) );
                    ( "sstables_skipped",
                      J.Int (after.Cluster.sstables_skipped - before.Cluster.sstables_skipped) );
                    ( "sstables_probed",
                      J.Int (after.Cluster.sstables_probed - before.Cluster.sstables_probed) );
                  ]
                @ read_serve_json serve0 serve1)
            | other -> other)
          threads
      in
      series_acc :=
        J.Obj
          [
            ("name", J.String name);
            ("leases", J.Bool leased);
            ("points", J.List points);
          ]
        :: !series_acc)
    series;
  (* Follower offload: a mixed run in which every write hands the client a
     read-your-writes token and timeline reads round-robin over the cohort's
     replicas. Followers serve the reads whose token their applied state
     already covers (parking briefly when it does not), so the leader keeps
     only the write load plus its share of the reads. *)
  Cluster.set_lease_enabled cluster true;
  let offload_top = List.fold_left Stdlib.max 0 threads in
  let serve0 = Cluster.read_serve_stats cluster in
  let offload_outcome =
    Workload.Experiment.run ~engine ~key_space
      ~make_driver:(fun () -> Workload.Driver.spinnaker cluster ~consistent_reads:false ())
      {
        (base_spec ~write_fraction:0.2 ~key_mode:hot_mode ()) with
        Workload.Experiment.threads = offload_top;
        value_bytes = config.Config.value_bytes;
        warmup = sec_f 0.5;
        measure = measure_span ();
      }
  in
  let serve1 = Cluster.read_serve_stats cluster in
  let d sel = sel serve1 - sel serve0 in
  let follower_served = d (fun (s : Cluster.read_serve_stats) -> s.Cluster.follower_timeline) in
  let leader_served = d (fun (s : Cluster.read_serve_stats) -> s.Cluster.leader_timeline) in
  let offload_fraction =
    if follower_served + leader_served = 0 then 0.0
    else float_of_int follower_served /. float_of_int (follower_served + leader_served)
  in
  Format.printf
    "  follower offload at %d threads (20%% writes): leader %d / follower %d timeline reads \
     (%.0f%% offloaded), %d token waits, %d redirects@."
    offload_top leader_served follower_served
    (100.0 *. offload_fraction)
    (d (fun (s : Cluster.read_serve_stats) -> s.Cluster.token_waits))
    (d (fun (s : Cluster.read_serve_stats) -> s.Cluster.token_redirects));
  record_field "follower_offload"
    (J.Obj
       (read_serve_json serve0 serve1
       @ [
           ("threads", J.Int offload_top);
           ("offload_fraction", J.Float offload_fraction);
           ("outcome", Workload.Experiment.json_of_outcome offload_outcome);
         ]));
  let final = Cluster.read_path_stats cluster in
  record_field "tables_per_node"
    (J.List
       (List.map
          (fun (node, tables) ->
            J.Obj
              [
                ("node", J.Int node);
                ("sstables", J.List (List.map (fun n -> J.Int n) tables));
              ])
          final.Cluster.tables_per_node));
  record_field "compaction"
    (J.Obj
       [
         ("compactions", J.Int final.Cluster.compactions);
         ("full_compactions", J.Int final.Cluster.full_compactions);
         ("max_input_bytes", J.Int final.Cluster.max_compaction_input_bytes);
         ("total_input_bytes", J.Int final.Cluster.total_compaction_input_bytes);
         ("max_store_bytes", J.Int final.Cluster.max_store_bytes_at_compaction);
       ]);
  (* Smoke assertions: the cache must be effective on the hot mix, hot-key
     strong reads must beat the uniform mix by at least 2x at the highest
     thread count, leased strong reads must beat the per-read quorum guard
     by at least 1.5x at saturation, and the offload run must have served
     timeline token reads from followers. *)
  let top = List.fold_left Stdlib.max 0 threads in
  let hot_tp =
    try Hashtbl.find peak ("hot keys, strong reads", top) with Not_found -> 0.0
  in
  let uni_tp =
    try Hashtbl.find peak ("uniform keys, strong reads", top) with Not_found -> infinity
  in
  let unleased_tp =
    try Hashtbl.find peak ("hot keys, strong reads (unleased)", top) with Not_found -> infinity
  in
  let speedup = if uni_tp > 0.0 then hot_tp /. uni_tp else 0.0 in
  let lease_speedup = if unleased_tp > 0.0 then hot_tp /. unleased_tp else 0.0 in
  record_field "hot_over_uniform_speedup" (J.Float speedup);
  record_field "hot_cache_hit_rate" (J.Float !hot_hit_rate);
  record_field "leased_over_unleased_speedup" (J.Float lease_speedup);
  Format.printf "  hot/uniform strong-read speedup at %d threads: %.2fx (hot hit rate %.1f%%)@."
    top speedup (100.0 *. !hot_hit_rate);
  Format.printf "  leased/unleased strong-read speedup at %d threads: %.2fx@." top lease_speedup;
  if !hot_hit_rate <= 0.0 then failwith "read: cache hit rate on the hot-key mix is zero";
  if speedup < 2.0 then
    failwith
      (Printf.sprintf "read: hot-key speedup %.2fx below the 2x bar (hot %.0f vs uniform %.0f req/s)"
         speedup hot_tp uni_tp);
  if lease_speedup < 1.5 then
    failwith
      (Printf.sprintf
         "read: leased speedup %.2fx below the 1.5x bar (leased %.0f vs unleased %.0f req/s)"
         lease_speedup hot_tp unleased_tp);
  if follower_served <= 0 then
    failwith "read: followers served no timeline token reads in the offload run"

(* --- Paxos tuning: group-commit batching ------------------------------------ *)

(* The raw-speed campaign's protocol half: sweep the WAL group-commit bound on
   a pure-write workload, then run a fig11-shaped closed-loop load at 80 nodes
   with 1e5 clients at the best bound to show the write path at scale. The
   optimum must land above batch=1 — if it does not, batching regressed. *)
let paxos_tuning () =
  header "Paxos tuning: group-commit batch bound";
  let batches = if !quick then [ 1; 8; 64 ] else [ 1; 4; 16; 64 ] in
  let threads = 256 in
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let best = ref (0.0, 0) in
  Format.printf "  writes/s at %d closed-loop writers@." threads;
  Format.printf "  %12s %10s %10s %10s@." "wal_max_batch" "writes/s" "mean(ms)" "p99(ms)";
  let cells =
    List.map
      (fun batch ->
        let config = { Config.default with Config.wal_max_batch = batch } in
        let points, _ = spin_sweep ~config ~consistent_reads:true ~spec [ threads ] in
        let s = (List.hd points).Workload.Experiment.outcome.Workload.Experiment.all in
        let tp = s.Sim.Metrics.throughput_per_sec in
        if tp > fst !best then best := (tp, batch);
        Format.printf "  %12d %10.0f %10.2f %10.2f@." batch tp s.Sim.Metrics.mean_latency_ms
          s.Sim.Metrics.p99_ms;
        J.Obj
          [
            ("wal_max_batch", J.Int batch);
            ("throughput_per_sec", J.Float tp);
            ("mean_latency_ms", J.Float s.Sim.Metrics.mean_latency_ms);
            ("p99_ms", J.Float s.Sim.Metrics.p99_ms);
            ("errors", J.Int s.Sim.Metrics.errors);
          ])
      batches
  in
  let best_tp, best_batch = !best in
  Format.printf "  best: batch=%d (%.0f writes/s)@." best_batch best_tp;
  record_field "batches" (J.List cells);
  record_field "best"
    (J.Obj [ ("wal_max_batch", J.Int best_batch); ("throughput_per_sec", J.Float best_tp) ]);
  if best_batch <= 1 then
    failwith "paxos-tuning: the sweep's optimum landed on batch=1 — batching is a no-op";
  (* Fig-11 shape at scale: a tuned 80-node cluster under 100k closed-loop
     clients. The client timeout is raised so the (deliberately) saturating
     load queues instead of dissolving into retry storms, and the window is
     sized to the queueing delay — at saturation the mean latency is
     clients/capacity (~1s here), so a sub-second measure phase would close
     before any write issued inside it completes. *)
  let nodes = 80 in
  let clients = 100_000 in
  let config =
    {
      Config.default with
      Config.nodes;
      wal_max_batch = best_batch;
      value_bytes = 256;
      client_timeout = Sim.Sim_time.sec 10;
    }
  in
  let scale_spec =
    {
      (base_spec ~write_fraction:1.0 ~key_mode:consecutive ()) with
      Workload.Experiment.threads = clients;
      value_bytes = config.Config.value_bytes;
      warmup = sec_f 1.0;
      measure = sec_f 2.0;
    }
  in
  let engine, cluster = spin_cluster ~config () in
  let outcome =
    Workload.Experiment.run ~engine ~key_space:config.Config.key_space
      ~make_driver:(fun () -> Workload.Driver.spinnaker cluster ~consistent_reads:true ())
      scale_spec
  in
  let s = outcome.Workload.Experiment.all in
  Format.printf "  fig11 shape at scale: %d nodes, %d clients: %.0f writes/s, mean %.1f ms, p99 %.1f ms@."
    nodes clients s.Sim.Metrics.throughput_per_sec s.Sim.Metrics.mean_latency_ms
    s.Sim.Metrics.p99_ms;
  record_field "fig11_at_scale"
    (J.Obj
       [
         ("nodes", J.Int nodes);
         ("clients", J.Int clients);
         ("wal_max_batch", J.Int best_batch);
         ("throughput_per_sec", J.Float s.Sim.Metrics.throughput_per_sec);
         ("mean_latency_ms", J.Float s.Sim.Metrics.mean_latency_ms);
         ("p99_ms", J.Float s.Sim.Metrics.p99_ms);
         ("errors", J.Int s.Sim.Metrics.errors);
       ]);
  if s.Sim.Metrics.throughput_per_sec <= 0.0 then
    failwith "paxos-tuning: the at-scale run completed no writes"

(* --- Figure 11: write latency vs cluster size ------------------------------ *)

let fig11 () =
  header "Figure 11: write latency with increasing cluster size (fixed per-node load)";
  let sizes = if !quick then [ 20; 40 ] else [ 20; 40; 80 ] in
  Format.printf "  %-28s %8s %12s %10s@." "" "nodes" "load(req/s)" "mean(ms)";
  List.iter
    (fun nodes ->
      let config = { Config.default with Config.nodes } in
      let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
      let threads = nodes * 4 in
      let spin_points, phases = spin_sweep ~config ~consistent_reads:true ~spec [ threads ] in
      List.iter
        (fun Workload.Experiment.{ outcome; _ } ->
          Format.printf "  %-28s %8d %12.0f %10.2f@." "Spinnaker writes" nodes
            outcome.Workload.Experiment.all.Sim.Metrics.throughput_per_sec
            outcome.Workload.Experiment.all.Sim.Metrics.mean_latency_ms)
        spin_points;
      record_series ~phases ~extra:[ ("nodes", J.Int nodes) ] "Spinnaker writes" spin_points;
      let cas_points =
        cas_sweep ~config ~read_level:Eventual.Cas_message.Quorum
          ~write_level:Eventual.Cas_message.Quorum ~spec [ threads ]
      in
      List.iter
        (fun Workload.Experiment.{ outcome; _ } ->
          Format.printf "  %-28s %8d %12.0f %10.2f@." "Cassandra quorum writes" nodes
            outcome.Workload.Experiment.all.Sim.Metrics.throughput_per_sec
            outcome.Workload.Experiment.all.Sim.Metrics.mean_latency_ms)
        cas_points;
      record_series ~extra:[ ("nodes", J.Int nodes) ] "Cassandra quorum writes" cas_points)
    sizes

(* --- Figure 12: mixed workload ---------------------------------------------- *)

let fig12 () =
  header "Figure 12: average latency on a mixed workload vs write percentage";
  let fractions = if !quick then [ 0.1; 0.5 ] else [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ] in
  let threads = 16 in
  let run name sweep =
    Format.printf "  %-40s %8s %12s %10s@." name "write%" "load(req/s)" "mean(ms)";
    List.iter
      (fun wf ->
        let spec = base_spec ~write_fraction:wf () in
        let points, phases = sweep spec in
        List.iter
          (fun Workload.Experiment.{ outcome; _ } ->
            Format.printf "  %-40s %8.0f %12.0f %10.2f@." "" (wf *. 100.0)
              outcome.Workload.Experiment.all.Sim.Metrics.throughput_per_sec
              outcome.Workload.Experiment.all.Sim.Metrics.mean_latency_ms)
          points;
        record_series ?phases ~extra:[ ("write_fraction", J.Float wf) ] name points)
      fractions
  in
  run "Spinnaker consistent reads + writes" (fun spec ->
      let points, phases = spin_sweep ~consistent_reads:true ~spec [ threads ] in
      (points, Some phases));
  run "Spinnaker timeline reads + writes" (fun spec ->
      let points, phases = spin_sweep ~consistent_reads:false ~spec [ threads ] in
      (points, Some phases));
  run "Cassandra quorum reads + quorum writes" (fun spec ->
      ( cas_sweep ~read_level:Eventual.Cas_message.Quorum
          ~write_level:Eventual.Cas_message.Quorum ~spec [ threads ],
        None ));
  run "Cassandra weak reads + quorum writes" (fun spec ->
      ( cas_sweep ~read_level:Eventual.Cas_message.One ~write_level:Eventual.Cas_message.Quorum
          ~spec [ threads ],
        None ))

(* --- Figure 13: SSD log ------------------------------------------------------ *)

let fig13 () =
  header "Figure 13: average write latency using an SSD for logging";
  let config = { Config.default with Config.disk = Sim.Disk_model.Ssd } in
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let threads = write_threads () in
  let points, phases = spin_sweep ~config ~consistent_reads:true ~spec threads in
  emit_series ~phases "Spinnaker writes (SSD log)" points (fun o -> o.Workload.Experiment.all);
  emit_series "Cassandra quorum writes (SSD log)"
    (cas_sweep ~config ~read_level:Eventual.Cas_message.Quorum
       ~write_level:Eventual.Cas_message.Quorum ~spec threads)
    (fun o -> o.Workload.Experiment.all)

(* --- Figure 14: conditional put vs put ---------------------------------------- *)

let fig14 () =
  header "Figure 14: conditional put vs regular put (Spinnaker)";
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let threads = write_threads () in
  let cond_points, cond_phases = spin_sweep ~consistent_reads:true ~conditional:true ~spec threads in
  emit_series ~phases:cond_phases "Spinnaker conditional put" cond_points (fun o ->
      o.Workload.Experiment.all);
  let put_points, put_phases = spin_sweep ~consistent_reads:true ~spec threads in
  emit_series ~phases:put_phases "Spinnaker regular put" put_points (fun o ->
      o.Workload.Experiment.all)

(* --- Figure 15: weak vs quorum writes (Cassandra) ------------------------------- *)

let fig15 () =
  header "Figure 15: weak vs quorum writes in Cassandra";
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let threads = write_threads () in
  emit_series "Cassandra weak writes"
    (cas_sweep ~read_level:Eventual.Cas_message.One ~write_level:Eventual.Cas_message.One ~spec
       threads)
    (fun o -> o.Workload.Experiment.all);
  emit_series "Cassandra quorum writes"
    (cas_sweep ~read_level:Eventual.Cas_message.Quorum ~write_level:Eventual.Cas_message.Quorum
       ~spec threads)
    (fun o -> o.Workload.Experiment.all)

(* --- Figure 16: main-memory log -------------------------------------------------- *)

let fig16 () =
  header "Figure 16: write latency with a main-memory log (commit = 2/3 memory logs)";
  let config = { Config.default with Config.disk = Sim.Disk_model.Memory } in
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  let threads = write_threads () in
  let points, phases = spin_sweep ~config ~consistent_reads:true ~spec threads in
  emit_series ~phases "Spinnaker writes (main-memory log)" points (fun o ->
      o.Workload.Experiment.all)

(* --- Ablations --------------------------------------------------------------------- *)

let ablation_group_commit () =
  header "Ablation: group commit on/off (Spinnaker writes, magnetic log)";
  let spec = base_spec ~write_fraction:1.0 ~key_mode:consecutive () in
  List.iter
    (fun (label, batch) ->
      let config = { Config.default with Config.wal_max_batch = batch } in
      let points, phases = spin_sweep ~config ~consistent_reads:true ~spec [ 64 ] in
      emit_series ~phases ~extra:[ ("wal_max_batch", J.Int batch) ] label points (fun o ->
          o.Workload.Experiment.all))
    [ ("group commit (batch 24)", 24); ("no group commit (batch 1)", 1) ]

let ablation_piggyback () =
  header "Ablation: piggy-backed commit messages (§D.1) — recovery at 10 s commit period";
  record_field "piggyback_recovery"
    (J.List
       (List.map
          (fun (label, piggyback) ->
            let r = availability_run ~commit_period:(Sim.Sim_time.sec 10) ~piggyback in
            Format.printf "  %-44s recovery %.2f s@." label r;
            J.Obj
              [
                ("label", J.String label);
                ("piggyback", J.Bool piggyback);
                ("recovery_sec", J.Float r);
              ])
          [ ("commit messages every 10 s", false); ("piggy-backed on proposes", true) ]))

let ablation_staleness () =
  header "Ablation: timeline-read staleness vs commit period";
  let periods = if !quick then [ 200; 1000 ] else [ 200; 1000; 5000 ] in
  let staleness_points = ref [] in
  List.iter
    (fun period_ms ->
      let config =
        { Config.default with Config.nodes = 5; commit_period = Sim.Sim_time.ms period_ms }
      in
      let engine, cluster = spin_cluster ~config () in
      let client = Cluster.new_client cluster in
      let key = Partition.key_of_int (Cluster.partition cluster) 7 in
      (* A writer stamps the key with the current time; timeline readers
         measure the age of the value they observe. *)
      let rec writer () =
        let now_us = Sim.Sim_time.time_to_us (Sim.Engine.now engine) in
        Client.put client key "c" ~value:(string_of_int now_us) (fun _ ->
            ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 20) writer))
      in
      writer ();
      let ages = Sim.Metrics.Histogram.create ~name:"staleness" () in
      let rec reader n =
        if n > 0 then
          Client.get client ~consistent:false key "c" (fun r ->
              (match r with
              | Ok Client.{ value = Some v; _ } ->
                let age = Sim.Sim_time.time_to_us (Sim.Engine.now engine) - int_of_string v in
                Sim.Metrics.Histogram.record ages (float_of_int age)
              | _ -> ());
              ignore
                (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 10) (fun () ->
                     reader (n - 1))))
      in
      Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
      reader 400;
      Sim.Engine.run_for engine (Sim.Sim_time.sec 10);
      let mean_ms = Sim.Metrics.Histogram.mean ages /. 1e3 in
      let p99_ms = Sim.Metrics.Histogram.percentile ages 0.99 /. 1e3 in
      let reads = Sim.Metrics.Histogram.count ages in
      Format.printf "  commit period %5d ms: mean staleness %7.1f ms, p99 %7.1f ms (%d reads)@."
        period_ms mean_ms p99_ms reads;
      staleness_points :=
        J.Obj
          [
            ("commit_period_ms", J.Int period_ms);
            ("mean_staleness_ms", J.Float mean_ms);
            ("p99_staleness_ms", J.Float p99_ms);
            ("reads", J.Int reads);
          ]
        :: !staleness_points)
    periods;
  record_field "timeline_staleness" (J.List (List.rev !staleness_points))

let ablations () =
  ablation_group_commit ();
  ablation_staleness ();
  ablation_piggyback ()

(* --- Scale-out (§10) --------------------------------------------------------------- *)

(* Throughput timeline while the cluster grows under load: a 10-node cluster
   runs a closed-loop write workload, then nodes 11..13 join. Each joiner
   absorbs replicas migrated off distinct donors (snapshot ship + log
   catch-up + Paxos-replicated membership change), and one range splits.
   Fewer cohorts per node means less follower log-force traffic contending
   with each leader's own writes, so the windowed throughput steps up. *)
let scaleout () =
  header "Scale-out (§10): throughput while nodes 11..13 join and a range splits";
  let config =
    {
      Config.default with
      Config.nodes = 10;
      (* Snapshots ship while the donor cohort is saturated; give a
         migration room before the leader declares it wedged. *)
      migration_timeout = Sim.Sim_time.sec 30;
    }
  in
  let engine, cluster = spin_cluster ~config () in
  let partition = Cluster.partition cluster in
  let n_clients = if !quick then 240 else 400 in
  let completed = ref 0 in
  let running = ref true in
  let value = Workload.Generator.value ~size:512 in
  List.iter
    (fun thread ->
      let client = Cluster.new_client cluster in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let gen =
        Workload.Generator.create ~rng ~key_space:config.Config.key_space
          ~mode:(Workload.Generator.Consecutive { stride = 257 }) ~thread
      in
      let rec loop () =
        if !running then
          Client.put client (Workload.Generator.next_key gen) "c" ~value (fun r ->
              (match r with Ok () -> incr completed | Error _ -> ());
              loop ())
      in
      loop ())
    (List.init n_clients Fun.id);
  (* Windowed throughput: completions per half-second bucket. *)
  let now_sec () = Sim.Sim_time.time_to_sec_f (Sim.Engine.now engine) in
  let windows = ref [] in
  let last = ref 0 in
  let rec sample () =
    if !running then begin
      let delta = !completed - !last in
      last := !completed;
      windows := (now_sec (), float_of_int delta /. 0.5) :: !windows;
      ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 500) sample)
    end
  in
  ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 500) sample);
  let timeline = ref [] in
  let note label = timeline := (now_sec (), label) :: !timeline in
  (* Step the engine until [cond] holds (or the timeout passes). *)
  let await ?(timeout = 30.0) cond =
    let deadline = Sim.Sim_time.add (Sim.Engine.now engine) (sec_f timeout) in
    let rec loop () =
      cond ()
      || (Sim.Sim_time.(Sim.Engine.now engine < deadline)
         &&
         (Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
          loop ()))
    in
    loop ()
  in
  (* Phase 1: steady state on the original 10 nodes. *)
  let pre_span = if !quick then 4.0 else 8.0 in
  Sim.Engine.run_for engine (sec_f pre_span);
  (* Phase 2: three nodes join at once; each takes over replicas from
     distinct donor followers (never the leader, so writes keep flowing).
     The nine migrations run concurrently — one per cohort — to keep the
     transition window short. A busy leader rejects the request and a
     timed-out migration aborts cleanly, so each kicker polls until the
     membership change lands. *)
  let migrated = ref [] in
  let plans =
    List.concat_map
      (fun ranges ->
        let joiner = Cluster.add_node cluster in
        note (Printf.sprintf "node %d joined" joiner);
        List.map (fun range -> (range, joiner)) ranges)
      [ [ 0; 3; 6 ]; [ 1; 4; 7 ]; [ 2; 5; 8 ] ]
  in
  List.iter
    (fun (range, joiner) ->
      let rec kick () =
        if List.mem joiner (Partition.cohort partition ~range) then begin
          migrated := (range, joiner) :: !migrated;
          note (Printf.sprintf "range %d replica migrated to node %d" range joiner)
        end
        else begin
          let members = Partition.cohort partition ~range in
          let leader = Cluster.leader_of cluster ~range in
          (match List.filter (fun n -> Some n <> leader) members with
          | d :: _ -> ignore (Cluster.request_join cluster ~range ~joiner ~remove:d ())
          | [] -> ());
          ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 250) kick)
        end
      in
      kick ())
    plans;
  if not (await ~timeout:90.0 (fun () -> List.length !migrated = List.length plans)) then
    Format.printf "  WARNING: only %d/%d migrations completed@." (List.length !migrated)
      (List.length plans);
  (* Phase 3: split one range; both children serve before any data moves. *)
  let ranges_before = Partition.ranges partition in
  if
    await (fun () -> Cluster.request_split cluster ~range:9)
    && await (fun () -> Partition.ranges partition > ranges_before)
  then note (Printf.sprintf "range 9 split (now %d ranges)" (Partition.ranges partition))
  else Format.printf "  WARNING: split of range 9 did not complete@.";
  ignore (await (fun () -> Cluster.is_ready cluster));
  (* Phase 4: steady state on 13 nodes (after a settling window: the last
     catch-up rounds and the split drain park writes briefly). *)
  let post_start = now_sec () +. 2.0 in
  Sim.Engine.run_for engine (sec_f (if !quick then 6.0 else 10.0));
  running := false;
  let series = List.rev !windows in
  let mean sel =
    match List.filter sel series with
    | [] -> 0.0
    | pts -> List.fold_left (fun a (_, r) -> a +. r) 0.0 pts /. float_of_int (List.length pts)
  in
  (* Skip the first simulated second (cold caches, empty pipelines). *)
  let pre_mean = mean (fun (t, _) -> t > 1.0 && t <= pre_span) in
  let post_mean = mean (fun (t, _) -> t > post_start) in
  Format.printf "  %-22s %10s@." "window end (s)" "req/s";
  List.iter (fun (t, r) -> Format.printf "  %-22.1f %10.0f@." t r) series;
  List.iter (fun (t, l) -> Format.printf "  %8.2fs %s@." t l) (List.rev !timeline);
  Format.printf "  pre-join mean %8.0f req/s   post-join mean %8.0f req/s (%+.0f%%)@." pre_mean
    post_mean
    (100.0 *. (post_mean -. pre_mean) /. pre_mean);
  record_field "scaleout"
    (J.Obj
       [
         ("pre_mean_req_per_sec", J.Float pre_mean);
         ("post_mean_req_per_sec", J.Float post_mean);
         ("migrations", J.Int (List.length !migrated));
         ("ranges", J.Int (Partition.ranges partition));
         ( "throughput",
           J.List
             (List.map
                (fun (t, r) -> J.Obj [ ("t_sec", J.Float t); ("req_per_sec", J.Float r) ])
                series) );
         ( "timeline",
           J.List
             (List.map
                (fun (t, l) -> J.Obj [ ("t_sec", J.Float t); ("event", J.String l) ])
                (List.rev !timeline)) );
       ]);
  if post_mean <= pre_mean then
    failwith
      (Printf.sprintf "scaleout: no throughput gain (pre %.0f, post %.0f req/s)" pre_mean
         post_mean)

(* --- Audit: cross-backend robustness battery ----------------------------------------- *)

(* Sweeps operation mix x key skew x fault profile x cluster size across the
   three backends (Spinnaker consistent, the quorum-configured eventual
   store, the master-slave pair) and emits one comparable cell per
   combination: throughput/latency, fault exposure, per-cause network
   counters, and invariant violations. A clean tree produces zero violations
   and the experiment fails otherwise; the non-empty [violations] list marks
   the cell that found a safety bug together with the fault schedule that
   fired.
   Quick mode trims the sweep to uniform keys and one cluster size but keeps
   every fault profile, so each backend's fault generators are pinned by the
   baseline (3 backends x 4 profiles x 2 mixes). *)
let audit () =
  header "Audit: operation mix x key skew x fault profile x backend";
  let mixes =
    [
      ("read-heavy", Workload.Generator.weights ~read:0.95 ~write:0.05 ());
      ("write-heavy", Workload.Generator.weights ~read:0.25 ~write:0.60 ~cond_incr:0.15 ());
    ]
  in
  let skews =
    ("uniform", Workload.Generator.Uniform_random)
    ::
    (if !quick then []
     else [ ("hotspot", Workload.Generator.Hotspot { fraction_hot = 0.9; hot_keys = 512 }) ])
  in
  let profiles =
    [
      Workload.Chaos.Steady;
      Workload.Chaos.Crashes;
      Workload.Chaos.Partitions;
      Workload.Chaos.Lossy;
    ]
  in
  let sizes = if !quick then [ 5 ] else [ 5; 10 ] in
  let total_violations = ref 0 in
  let cell_index = ref 0 in
  Format.printf "  %-16s %-11s %-8s %-10s %5s %12s %9s %9s %6s@." "backend" "mix" "skew"
    "profile" "nodes" "load(req/s)" "mean(ms)" "p99(ms)" "viol";
  let emit_cell ~backend ~mix ~skew ~profile ~nodes (a : Workload.Chaos.audit) =
    let s = a.Workload.Chaos.a_outcome.Workload.Experiment.all in
    Format.printf "  %-16s %-11s %-8s %-10s %5d %12.0f %9.2f %9.2f %6d@." backend mix skew
      (Workload.Chaos.profile_name profile) nodes s.Sim.Metrics.throughput_per_sec
      s.Sim.Metrics.mean_latency_ms s.Sim.Metrics.p99_ms
      (List.length a.Workload.Chaos.a_violations);
    List.iter
      (fun (invariant, detail) ->
        Format.printf "    VIOLATION [%s] %s@." invariant detail)
      a.Workload.Chaos.a_violations;
    total_violations := !total_violations + List.length a.Workload.Chaos.a_violations;
    series_acc :=
      J.Obj
        [
          ("backend", J.String backend);
          ("mix", J.String mix);
          ("skew", J.String skew);
          ("profile", J.String (Workload.Chaos.profile_name profile));
          ("nodes", J.Int nodes);
          ("outcome", Workload.Experiment.json_of_outcome a.Workload.Chaos.a_outcome);
          ( "exposure",
            J.Obj
              (List.map (fun (k, v) -> (k, J.Int v)) a.Workload.Chaos.a_exposure) );
          ("net", Option.value ~default:J.Null a.Workload.Chaos.a_net);
          ( "violations",
            J.List
              (List.map
                 (fun (invariant, detail) ->
                   J.Obj
                     [
                       ("invariant", J.String invariant);
                       ("detail", J.String detail);
                     ])
                 a.Workload.Chaos.a_violations) );
        ]
      :: !series_acc
  in
  List.iter
    (fun nodes ->
      let config = { Workload.Chaos.default_config with Config.nodes } in
      let key_space = config.Config.key_space in
      List.iter
        (fun (mix, weights) ->
          List.iter
            (fun (skew, key_mode) ->
              let spec =
                {
                  Workload.Experiment.default_spec with
                  Workload.Experiment.threads = 16;
                  weights = Some weights;
                  key_mode;
                  value_bytes = 1024;
                  warmup = warmup_span ();
                  measure = measure_span ();
                }
              in
              List.iter
                (fun profile ->
                  incr cell_index;
                  let seed = 1000 + !cell_index in
                  emit_cell ~backend:"spinnaker" ~mix ~skew ~profile ~nodes
                    (Workload.Chaos.audit_spinnaker ~track:track_engine ~seed ~config ~profile ~spec
                       ~key_space ());
                  emit_cell ~backend:"eventual-quorum" ~mix ~skew ~profile ~nodes
                    (Workload.Chaos.audit_eventual ~track:track_engine ~seed ~config ~profile ~spec
                       ~key_space ());
                  (* The pair's cluster-size and skew axes are degenerate (2
                     nodes, one log); run it once per (mix, profile). *)
                  if nodes = List.hd sizes && skew = fst (List.hd skews) then
                    emit_cell ~backend:"masterslave" ~mix ~skew ~profile ~nodes:2
                      (Workload.Chaos.audit_masterslave ~track:track_engine ~seed ~profile ~spec
                         ~key_space ()))
                profiles)
            skews)
        mixes)
    sizes;
  record_field "backends"
    (J.List (List.map (fun b -> J.String b) [ "spinnaker"; "eventual-quorum"; "masterslave" ]));
  record_field "invariant_violations" (J.Int !total_violations);
  Format.printf "  %d cells, %d invariant violations@." (List.length !series_acc)
    !total_violations;
  if !total_violations > 0 then failwith "audit: a cell violated an invariant"

(* --- Transactions: bank transfers over MVCC snapshots + 2PC over Paxos ----- *)

(* Two cells. Steady: closed-loop cross-range transfers with concurrent
   snapshot audits on a healthy cluster — throughput/latency of the 2PC
   path plus the conservation and serializability verdicts. Chaos: the same
   bank under the transaction gauntlet (crash hazard ×8 while transfers are
   mid-commit), a small seed battery of the 20-seed nemesis suite (replay
   one seed through NEMESIS_SEEDS and test/test_nemesis.ml). The experiment
   fails if no steady transfer commits, a steady transfer stays unresolved,
   a chaos seed commits nothing, or any invariant is violated. *)
let txn () =
  header "Transactions: cross-range bank transfers (MVCC snapshots + 2PC over Paxos)";
  let config =
    { Config.default with Config.nodes = 5; disk = Sim.Disk_model.Ssd }
  in
  let engine, cluster = spin_cluster ~config () in
  let duration = if !quick then sec_f 6.0 else sec_f 20.0 in
  let bank =
    Workload.Experiment.run_bank ~engine ~cluster ~accounts:16
      ~threads:(if !quick then 4 else 8) ~duration ()
  in
  let s = bank.Workload.Experiment.transfer_stats in
  Format.printf
    "  steady: %d committed, %d aborted, %d unresolved, %d audits; %.0f txn/s, mean %.2f ms, \
     p99 %.2f ms@."
    bank.Workload.Experiment.transfers_committed bank.Workload.Experiment.transfers_aborted
    bank.Workload.Experiment.transfers_unresolved bank.Workload.Experiment.bank_audits
    s.Sim.Metrics.throughput_per_sec s.Sim.Metrics.mean_latency_ms s.Sim.Metrics.p99_ms;
  List.iter
    (fun (invariant, detail) -> Format.printf "    VIOLATION [%s] %s@." invariant detail)
    bank.Workload.Experiment.bank_violations;
  record_field "steady" (Workload.Experiment.json_of_bank bank);
  let seeds = if !quick then [ 7001; 7002 ] else [ 7001; 7002; 7003; 7004; 7005 ] in
  let chaos_violations = ref 0 in
  let verdicts =
    List.map
      (fun seed ->
        let v = Workload.Chaos.run_txn_bank ~seed () in
        Format.printf
          "  chaos seed %d: %d committed, %d unresolved, %d txns checked, %d audits, %d \
           violations@."
          seed v.Workload.Chaos.acked v.Workload.Chaos.indeterminate
          v.Workload.Chaos.n_writes v.Workload.Chaos.n_reads
          (List.length v.Workload.Chaos.violations);
        List.iter
          (fun (invariant, detail) -> Format.printf "    VIOLATION [%s] %s@." invariant detail)
          v.Workload.Chaos.violations;
        if v.Workload.Chaos.acked = 0 then
          failwith (Printf.sprintf "txn: chaos seed %d committed no transfer" seed);
        chaos_violations := !chaos_violations + List.length v.Workload.Chaos.violations;
        Workload.Chaos.json_of_verdict v)
      seeds
  in
  record_field "chaos" (J.List verdicts);
  record_field "invariant_violations"
    (J.Int (List.length bank.Workload.Experiment.bank_violations + !chaos_violations));
  if bank.Workload.Experiment.transfers_committed = 0 then
    failwith "txn: no transfer committed in the steady cell";
  if bank.Workload.Experiment.transfers_unresolved > 0 then
    failwith
      (Printf.sprintf "txn: %d steady-cell transfers left unresolved"
         bank.Workload.Experiment.transfers_unresolved);
  if bank.Workload.Experiment.bank_violations <> [] then
    failwith "txn: steady cell violated conservation or serializability";
  if !chaos_violations > 0 then failwith "txn: chaos cell violated an invariant"

(* --- soak: the Mixed gauntlet over many seeds ---------------------------------------------- *)

(* 160 s of Mixed chaos (crashes, partitions, loss, coordination cuts, then
   heal and a 10 s quiesce) on each of seeds 1-120: the battery ROADMAP item
   1 is judged by. Every failing seed is printed with its violation classes.
   The classes item 1 still lists as open are tolerated; any other class
   fails the experiment, so a new kind of failure cannot land unseen. Drop a
   class from [soak_open] once item 1 closes it. *)
let soak_open = [ "lost-acked-write"; "linearizability"; "double-apply" ]

let soak () =
  header "Soak: 160 s Mixed chaos, seeds 1-120";
  let seeds = List.init 120 (fun i -> i + 1) in
  let failing =
    List.filter_map
      (fun seed ->
        let v =
          Workload.Chaos.run_spinnaker ~profile:Workload.Chaos.Mixed
            ~chaos_for:(Sim.Sim_time.sec 160) ~seed ()
        in
        match List.sort_uniq String.compare (List.map fst v.Workload.Chaos.violations) with
        | [] -> None
        | classes ->
          Format.printf "  seed %3d: %s@." seed (String.concat ", " classes);
          Some (seed, classes))
      seeds
  in
  Format.printf "  %d of %d seeds failed; tolerated classes: %s@." (List.length failing)
    (List.length seeds) (String.concat ", " soak_open);
  record_field "failing"
    (J.List
       (List.map
          (fun (seed, classes) ->
            J.Obj
              [
                ("seed", J.Int seed);
                ("classes", J.List (List.map (fun c -> J.String c) classes));
              ])
          failing));
  match
    List.filter (fun (_, classes) -> List.exists (fun c -> not (List.mem c soak_open)) classes) failing
  with
  | [] -> ()
  | unexpected ->
    failwith
      (Printf.sprintf "soak: seeds %s fail a class outside the open ones"
         (String.concat ", " (List.map (fun (seed, _) -> string_of_int seed) unexpected)))

(* --- driver ----------------------------------------------------------------------------- *)

let all_experiments =
  [
    ("fig1", fig1);
    ("fig8", fig8);
    ("fig9", fig9);
    ("read", read_exp);
    ("paxos-tuning", paxos_tuning);
    ("table1", table1);
    ("failover", failover);
    ("tail", tail);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("scaleout", scaleout);
    ("audit", audit);
    ("txn", txn);
    ("ablations", ablations);
    ("soak", soak);
  ]

(* Resolve an output-path argument ([--json] or [--trace-out]) for one
   experiment: a bare flag writes <prefix><name>.json in the current
   directory; a directory argument writes the files there; a single
   experiment with an argument ending in [.json] writes exactly that file. *)
let out_path ~prefix ~arg ~single name =
  match arg with
  | None -> None
  | Some "" -> Some (Printf.sprintf "%s%s.json" prefix name)
  | Some path when single && Filename.check_suffix path ".json" -> Some path
  | Some dir ->
    (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
    Some (Filename.concat dir (Printf.sprintf "%s%s.json" prefix name))

let json_path ~json ~single name = out_path ~prefix:"BENCH_" ~arg:json ~single name

let run_experiments names quick_flag json trace_out =
  quick := quick_flag;
  want_trace := trace_out <> None;
  let names = if names = [] || List.mem "all" names then List.map fst all_experiments else names in
  let single = match names with [ _ ] -> true | _ -> false in
  List.iter
    (fun name ->
      series_acc := [];
      extras_acc := [];
      tracked_engines := [];
      traced := None;
      (List.assoc name all_experiments) ();
      let sim = sim_seconds () in
      Format.printf "  [%s] %.1f sim-s@." name sim;
      (match json_path ~json ~single name with
      | None -> ()
      | Some path ->
        let doc =
          J.Obj
            ([
               ("experiment", J.String name);
               ("quick", J.Bool !quick);
               ("sim_seconds", J.Float sim);
               ("series", J.List (List.rev !series_acc));
             ]
            @ List.rev !extras_acc)
        in
        J.to_file path doc;
        Format.printf "  wrote %s@." path);
      match (out_path ~prefix:"TRACE_" ~arg:trace_out ~single name, !traced) with
      | Some path, Some (trace, registry) ->
        Sim.Trace_export.to_file ~registry trace path;
        Format.printf "  wrote %s (%d events, %d dropped)@." path (Sim.Trace.length trace)
          (Sim.Trace.dropped trace)
      | Some _, None ->
        Format.printf "  (no Spinnaker cluster built by %s: no trace written)@." name
      | None, _ -> ())
    names

open Cmdliner

(* Names are parsed as an enum, so an unknown one is a usage error (exit
   124) before any experiment runs. *)
let names_t =
  let names = "all" :: List.map fst all_experiments in
  Arg.(
    value
    & pos_all (enum (List.map (fun n -> (n, n)) names)) []
    & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run.")

let quick_t = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps for CI.")

let json_t =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write a machine-readable BENCH_<experiment>.json per experiment. With no \
           value, files go to the current directory; with a directory $(docv) they go \
           there; with a single experiment and a $(docv) ending in .json, exactly that \
           file is written.")

let trace_out_t =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write each experiment's structured trace as Chrome trace-event JSON \
           (TRACE_<experiment>.json, loadable in Perfetto or chrome://tracing), with \
           metrics-registry gauges as counter tracks. Path resolution follows --json.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run_experiments $ names_t $ quick_t $ json_t $ trace_out_t)

let () = exit (Cmd.eval cmd)
