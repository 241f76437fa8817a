(* Jepsen-style nemesis runs: lossy and asymmetric network faults, randomized
   partition/heal schedules composed with crash chaos, duplicated deliveries,
   and coordination-service cuts.

   The chaos property drives every seed through the same gauntlet and then
   asserts the paper's §1.1 claims the hard way:

   - no acked write is ever lost (final version >= acked count per key);
   - no write — acked or retried — is applied twice (final version <= acked +
     indeterminate, and no origin appears twice in the committed log);
   - strong reads stay linearizable throughout (history checker).

   A failing seed prints its injection log and is reproducible alone with
   e.g. [NEMESIS_SEEDS=7 dune exec test/test_main.exe -- test nemesis]. To
   replay an explicit fault schedule instead of a seed — a shrunk
   MINIMAL_SCHEDULE artifact, say — point [NEMESIS_SCHEDULE] at the JSON
   file (a bare schedule array or a verdict object with an [injections]
   field); the chaos test then re-executes those injections through the
   {!Workload.Chaos} harness and fails with the verdict's violations. *)

open Spinnaker
module History = Workload.History
module Lsn = Storage.Lsn

let check_bool = Alcotest.(check bool)

let test_config =
  {
    Config.default with
    Config.nodes = 5;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

let all_nodes = [ 0; 1; 2; 3; 4 ]

(* --- satellite: exponential chaos samples are clamped to >= 1 µs ---------- *)

let test_chaos_clamps_zero_mean () =
  let engine = Sim.Engine.create ~seed:3 () in
  let failure = Sim.Failure.create engine in
  let engages = ref 0 and disengages = ref 0 in
  let tog =
    Sim.Failure.toggle ~label:"zero-mean"
      ~engage:(fun () -> incr engages)
      ~disengage:(fun () -> incr disengages)
  in
  Sim.Failure.toggle_chaos failure ~mean_time_to_fault:(Sim.Sim_time.us 0)
    ~mean_time_to_heal:(Sim.Sim_time.us 0)
    ~until:(Sim.Sim_time.at_us 2_000) [ tog ];
  (* A zero-mean exponential would sample 0 µs forever and pin the clock at
     t=0; the >= 1 µs clamp makes the schedule advance and terminate. *)
  Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
  check_bool "schedule advanced" true (!engages > 50 && !disengages > 50);
  check_bool "bounded by until" true (!engages <= 2_001)

(* --- satellite: ZK-only cut — leader steps down, majority side elects ----- *)

let test_zk_cut_leader_steps_down () =
  let engine = Sim.Engine.create ~seed:11 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let range = 0 in
  let old_leader = Option.get (Cluster.leader_of cluster ~range) in
  let failure = Sim.Failure.create engine in
  (* Cut ONLY the leader's link to the coordination service: the data network
     and the node itself keep running. *)
  let cut =
    Sim.Failure.toggle
      ~label:(Printf.sprintf "zk-cut-n%d" old_leader)
      ~engage:(fun () -> Cluster.set_zk_reachable cluster old_leader false)
      ~disengage:(fun () -> Cluster.set_zk_reachable cluster old_leader true)
  in
  let now = Sim.Engine.now engine in
  Sim.Failure.toggle_for failure
    ~at:(Sim.Sim_time.add now (Sim.Sim_time.ms 100))
    ~down_for:(Sim.Sim_time.sec 3) cut;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  (* The old leader's session is gone: it must have stepped down (it declared
     the session dead client-side before the server could expire it and hand
     leadership elsewhere), and the majority side elected a replacement. *)
  (match Node.cohort (Cluster.node cluster old_leader) ~range with
  | Some c ->
    check_bool "old leader stepped down" true (Cohort.role c <> Cohort.Leader)
  | None -> Alcotest.fail "old leader hosts no cohort for range 0");
  let new_leader = Cluster.leader_of cluster ~range in
  check_bool "a new leader is open" true (new_leader <> None);
  check_bool "new leader is a different node" true (new_leader <> Some old_leader);
  (* Writes to the range keep succeeding while the cut lasts. *)
  let client = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 1 in
  let r = ref None in
  Client.put client key "c" ~value:"during-cut" (fun x -> r := Some x);
  let rec drive n =
    match !r with
    | Some v -> v
    | None when n = 0 -> Error Client.Timed_out
    | None ->
      Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
      drive (n - 1)
  in
  check_bool "write succeeds under the cut" true (Result.is_ok (drive 500));
  (* Heal (toggle_for disengages at 3.1 s): the old leader reconnects with a
     fresh session and falls back in line as a follower. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 4);
  (match Node.cohort (Cluster.node cluster old_leader) ~range with
  | Some c -> check_bool "old leader rejoined as follower" true (Cohort.role c = Cohort.Follower)
  | None -> ());
  check_bool "range still has a leader" true (Cluster.leader_of cluster ~range <> None)

let chaos_seeds () =
  match Sys.getenv_opt "NEMESIS_SEEDS" with
  | Some s -> (
    match
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
    with
    | [] -> Alcotest.failf "NEMESIS_SEEDS=%S contains no seeds (expected e.g. \"15\" or \"3,7,21\")" s
    | seeds -> seeds)
  | None -> List.init 20 (fun i -> i + 1)

(* --- satellite: lease fencing — no stale strong read across a ZK cut ------ *)

(* Aggregated across seeds: the battery is only meaningful if some probes
   actually landed in the lapsed-lease window (refused) and some were served
   under a live lease. One seed's timing might miss the window; twenty
   should not. *)
let total_lease_rejects = ref 0
let total_probe_serves = ref 0

(* One seed of the fencing oracle. Cut the leader's coordination link at a
   seed-jittered instant while a writer keeps bumping a counter key through
   the normal client (which fails over to the new leader) and a probe fires
   a strong read directly at the OLD leader every 10 ms. Each probe records
   the highest acked counter value at send time; a served reply below that
   floor is a stale strong read — the lease was supposed to fence it. The
   probe bypasses client routing on purpose: it keeps aiming at the deposed
   leader long after every well-behaved client has moved on. *)
let run_lease_fence_seed seed =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then
    Alcotest.failf "seed %d: cluster never became ready" seed;
  let client = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 1 in
  let range = Partition.route (Cluster.partition cluster) key in
  let old_leader =
    match Cluster.leader_of cluster ~range with
    | Some l -> l
    | None -> Alcotest.failf "seed %d: range %d has no leader" seed range
  in
  (* Establish the counter at 0 synchronously so every probe has a floor. *)
  let acked = ref (-1) in
  let r0 = ref None in
  Client.put client key "c" ~value:"0" (fun x -> r0 := Some x);
  let rec settle n =
    match !r0 with
    | Some (Ok ()) -> acked := 0
    | Some (Error e) -> Alcotest.failf "seed %d: seed write failed: %a" seed Client.pp_error e
    | None when n = 0 -> Alcotest.failf "seed %d: seed write never settled" seed
    | None ->
      Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
      settle (n - 1)
  in
  settle 500;
  (* Writer: one outstanding put at a time; acked only counts clean acks
     (a timed-out put is indeterminate and must not raise the floor). *)
  let next = ref 0 in
  let writer_idle = ref true in
  let launch_write () =
    writer_idle := false;
    incr next;
    let n = !next in
    Client.put client key "c" ~value:(string_of_int n) (fun r ->
        writer_idle := true;
        match r with
        | Ok () -> if n > !acked then acked := n
        | Error _ -> ())
  in
  (* Probe endpoint: raw network peer, outside the client id space. *)
  let net = Cluster.net cluster in
  let probe_id = 90_000 + seed in
  let sent = Hashtbl.create 64 in
  let stale = ref [] in
  let serves = ref 0 in
  let refusals = ref 0 in
  Sim.Network.register net ~node:probe_id (fun env ->
      match env.Sim.Network.payload with
      | Message.Reply { request_id; reply } -> (
        match Hashtbl.find_opt sent request_id with
        | None -> ()
        | Some floor_n -> (
          Hashtbl.remove sent request_id;
          match reply with
          | Message.Value { value = Some v; _ } ->
            incr serves;
            let n = int_of_string v in
            if n < floor_n then stale := (request_id, n, floor_n) :: !stale
          | Message.Value { value = None; _ } ->
            incr serves;
            if floor_n >= 0 then stale := (request_id, -1, floor_n) :: !stale
          | Message.Not_leader _ | Message.Unavailable -> incr refusals
          | _ -> ()))
      | _ -> ());
  (* Cut ONLY the leader's coordination link, at a seed-varied instant so
     the battery sweeps the probe/lapse phase alignment. *)
  let failure = Sim.Failure.create engine in
  let cut =
    Sim.Failure.toggle
      ~label:(Printf.sprintf "zk-cut-n%d" old_leader)
      ~engage:(fun () -> Cluster.set_zk_reachable cluster old_leader false)
      ~disengage:(fun () -> Cluster.set_zk_reachable cluster old_leader true)
  in
  let now = Sim.Engine.now engine in
  Sim.Failure.toggle_for failure
    ~at:(Sim.Sim_time.add now (Sim.Sim_time.ms (60 + (37 * seed mod 180))))
    ~down_for:(Sim.Sim_time.sec 2) cut;
  let rid = ref 0 in
  for i = 1 to 400 do
    incr rid;
    Hashtbl.replace sent !rid !acked;
    Sim.Network.send net ~src:probe_id ~dst:old_leader
      (Message.Request
         {
           client = probe_id;
           request_id = !rid;
           floor = !rid;
           op = Message.Get { key; col = "c"; consistent = true; token = Lsn.zero };
         });
    if i mod 2 = 0 && !writer_idle then launch_write ();
    Sim.Engine.run_for engine (Sim.Sim_time.ms 10)
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  (match !stale with
  | [] -> ()
  | (rid, got, floor_n) :: _ ->
    Format.printf "@.lease-fence seed %d injection log:@.%a@.%a@." seed
      Sim.Failure.pp_injections failure Cluster.pp_status cluster;
    Alcotest.failf
      "seed %d: %d stale strong read(s) at the deposed leader (e.g. probe #%d read %d, %d \
       already acked)"
      seed (List.length !stale) rid got floor_n);
  check_bool
    (Printf.sprintf "seed %d: probes exercised the read path" seed)
    true
    (!serves + !refusals > 50);
  total_probe_serves := !total_probe_serves + !serves;
  total_lease_rejects :=
    !total_lease_rejects + (Cluster.read_serve_stats cluster).Cluster.lease_rejects

let test_lease_fencing () =
  List.iter run_lease_fence_seed (chaos_seeds ());
  check_bool "some probes were served under a live lease" true (!total_probe_serves > 0);
  check_bool "some probes hit the lapsed-lease refusal window" true (!total_lease_rejects > 0)

(* --- the chaos property --------------------------------------------------- *)

type outcome = { mutable acked : int; mutable indeterminate : int }

let dump_injections ?cluster seed failure =
  Format.printf "@.nemesis seed %d injection log:@.%a@." seed Sim.Failure.pp_injections
    failure;
  match cluster with
  | Some c ->
    Format.printf "%a@." Cluster.pp_status c;
    (* Ship the failure with its latency evidence: the flight recorder's
       pinned outlier traces, openable in Perfetto next to the schedule. *)
    let flight = Cluster.flight c in
    if Sim.Trace.Flight.pinned flight > 0 then begin
      let path = Printf.sprintf "TRACE_outliers_nemesis_seed%d.json" seed in
      Sim.Trace_export.outliers_to_file flight path;
      Format.printf "outlier flight-recorder traces dumped to %s@." path
    end
  | None -> ()

(* Aggregated across seeds so the per-cause drop counters can be asserted
   meaningfully (one seed's schedule might not engage every fault kind). *)
let total_lost = ref 0
let total_partitioned = ref 0
let total_duplicated = ref 0

let run_chaos_seed seed =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then
    Alcotest.failf "seed %d: cluster never became ready" seed;
  let net = Cluster.net cluster in
  let partition = Cluster.partition cluster in
  let failure = Sim.Failure.create engine in
  let history = History.create () in
  let keys = List.map (Partition.key_of_int partition) [ 3; 47; 91 ] in
  let outcomes = Hashtbl.create 8 in
  List.iter (fun key -> Hashtbl.replace outcomes key { acked = 0; indeterminate = 0 }) keys;
  let running = ref true in
  (* One serial writer per key: values are the write sequence number, so the
     store's version counter must end up exactly at the number of writes that
     actually applied. *)
  List.iter
    (fun key ->
      let client = Cluster.new_client cluster in
      let seq = ref 0 in
      let rec write_loop () =
        if !running then begin
          incr seq;
          let this = !seq in
          let invoked = Sim.Engine.now engine in
          Client.put client key "c" ~value:(string_of_int this) (fun result ->
              let o = Hashtbl.find outcomes key in
              if Result.is_ok result then o.acked <- o.acked + 1
              else o.indeterminate <- o.indeterminate + 1;
              History.record_write history ~key ~seq:this ~invoked
                ~completed:(Sim.Engine.now engine)
                ~acked:(Result.is_ok result);
              ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 60) write_loop))
        end
      in
      write_loop ())
    keys;
  (* Concurrent strong readers feeding the linearizability checker. *)
  List.iter
    (fun key ->
      let client = Cluster.new_client cluster in
      let rec read_loop () =
        if !running then begin
          let invoked = Sim.Engine.now engine in
          Client.get client key "c" (fun result ->
              (match result with
              | Ok Client.{ value; _ } ->
                History.record_read history ~key
                  ~observed:(Option.map int_of_string value)
                  ~invoked
                  ~completed:(Sim.Engine.now engine)
              | Error _ -> ());
              ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 45) read_loop))
        end
      in
      read_loop ())
    keys;
  (* The gauntlet: crash/restart chaos on two nodes, randomized symmetric and
     one-way pair partitions over the whole cluster, and episodes of message
     loss + duplication + delay jitter on every link — all at once. *)
  let until = Sim.Sim_time.at_us 10_000_000 in
  Sim.Failure.chaos failure
    ~mean_time_to_failure:(Sim.Sim_time.sec 3)
    ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
    ~until
    (List.filteri (fun i _ -> i < 2) (Cluster.failure_targets cluster));
  Sim.Failure.random_pair_partition_chaos failure net ~nodes:all_nodes
    ~mean_time_to_fault:(Sim.Sim_time.ms 1500)
    ~mean_time_to_heal:(Sim.Sim_time.ms 700)
    ~until;
  let lossy =
    Sim.Failure.link_faults_toggle net ~loss:0.08 ~duplicate:0.08
      ~jitter:(Sim.Distribution.Uniform (0.0, 400.0))
      all_nodes
  in
  Sim.Failure.toggle_chaos failure
    ~mean_time_to_fault:(Sim.Sim_time.ms 900)
    ~mean_time_to_heal:(Sim.Sim_time.ms 900)
    ~until [ lossy ];
  Sim.Engine.run_for engine (Sim.Sim_time.sec 11);
  (* Stop the load, heal everything the chaos may have left engaged, and let
     the cluster quiesce: restarts, takeovers, catch-ups, retries. *)
  running := false;
  let stats = Sim.Network.stats net in
  total_lost := !total_lost + stats.Sim.Metrics.net_dropped_lost;
  total_partitioned := !total_partitioned + stats.Sim.Metrics.net_dropped_partitioned;
  total_duplicated := !total_duplicated + stats.Sim.Metrics.net_duplicated;
  if
    Sim.Network.messages_dropped net
    <> stats.Sim.Metrics.net_dropped_down + stats.Sim.Metrics.net_dropped_partitioned
       + stats.Sim.Metrics.net_dropped_lost
  then begin
    dump_injections ~cluster seed failure;
    Alcotest.failf "seed %d: drop counters do not decompose by cause" seed
  end;
  Sim.Network.heal net;
  Sim.Network.clear_default_faults net;
  List.iter
    (fun s ->
      List.iter
        (fun d -> if s <> d then Sim.Network.clear_link_faults net ~src:s ~dst:d)
        all_nodes)
    all_nodes;
  for i = 0 to test_config.Config.nodes - 1 do
    Cluster.restart_node cluster i (* no-op for nodes that are up *)
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 10);
  (* Final strong reads close the history and pin the per-key version. *)
  let final_client = Cluster.new_client cluster in
  List.iter
    (fun key ->
      let r = ref None in
      let invoked = Sim.Engine.now engine in
      Client.get final_client key "c" (fun x -> r := Some x);
      let rec drive n =
        match !r with
        | Some v -> v
        | None when n = 0 -> Error Client.Timed_out
        | None ->
          Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
          drive (n - 1)
      in
      match drive 3000 with
      | Ok Client.{ value; version } ->
        History.record_read history ~key
          ~observed:(Option.map int_of_string value)
          ~invoked
          ~completed:(Sim.Engine.now engine);
        let o = Hashtbl.find outcomes key in
        if version < o.acked then begin
          dump_injections ~cluster seed failure;
          Alcotest.failf "seed %d: key %s lost acked writes (version %d < %d acked)" seed
            key version o.acked
        end;
        if version > o.acked + o.indeterminate then begin
          dump_injections ~cluster seed failure;
          Alcotest.failf
            "seed %d: key %s applied writes twice (version %d > %d acked + %d indeterminate)"
            seed key version o.acked o.indeterminate
        end
      | _ ->
        dump_injections ~cluster seed failure;
        Alcotest.failf "seed %d: final read of %s failed after heal" seed key)
    keys;
  (* Exactly-once at the log level: in the committed prefix of the leader's
     log (minus logically truncated records), no (client, request id) origin
     may appear under two different LSNs — that would be a duplicated retry
     applied twice. *)
  for range = 0 to Partition.ranges partition - 1 do
    match Cluster.leader_of cluster ~range with
    | None ->
      dump_injections ~cluster seed failure;
      Alcotest.failf "seed %d: range %d has no open leader after heal" seed range
    | Some l -> (
      let node = Cluster.node cluster l in
      match Node.cohort node ~range with
      | None -> ()
      | Some c ->
        let skipped = Cohort.skipped_lsns c in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun (lsn, _, _, origin) ->
            if not (List.exists (Lsn.equal lsn) skipped) then
              match origin with
              | None -> ()
              | Some { Storage.Log_record.client; request_id; _ } -> (
                match Hashtbl.find_opt seen (client, request_id) with
                | Some prev when not (Lsn.equal prev lsn) ->
                  dump_injections ~cluster seed failure;
                  Alcotest.failf
                    "seed %d: range %d origin (c%d,#%d) committed twice (lsn %s and %s)"
                    seed range client request_id (Lsn.to_string prev) (Lsn.to_string lsn)
                | _ -> Hashtbl.replace seen (client, request_id) lsn))
          (Storage.Wal.durable_writes_in (Node.wal node) ~cohort:range ~above:Lsn.zero
             ~upto:(Cohort.cmt c)))
  done;
  let violations = History.check history in
  if violations <> [] then begin
    dump_injections ~cluster seed failure;
    List.iter (fun v -> Format.printf "violation: %a@." History.pp_violation v) violations;
    Alcotest.failf "seed %d: %d linearizability violations" seed (List.length violations)
  end;
  check_bool
    (Printf.sprintf "seed %d: load was substantial" seed)
    true
    (History.writes history > 100 && History.reads history > 100)

(* Replay an explicit injection schedule (NEMESIS_SCHEDULE=<file>). The seed
   still feeds the workload streams — same seed + same schedule is the
   reproduction contract — so a verdict artifact's own [seed] field wins,
   then NEMESIS_SEEDS (first entry), then 1. *)
let run_schedule_replay path =
  let json =
    match Sim.Json.of_file path with
    | Error e -> Alcotest.failf "NEMESIS_SCHEDULE=%s: %s" path e
    | Ok json -> json
  in
  let schedule =
    match Workload.Chaos.schedule_of_artifact_json json with
    | Error e -> Alcotest.failf "NEMESIS_SCHEDULE=%s: %s" path e
    | Ok s -> s
  in
  let seed =
    match Sim.Json.member "seed" json with
    | Some (Sim.Json.Int s) -> s
    | _ -> List.hd (chaos_seeds ())
  in
  (* Same seed + same schedule + same code: a verdict artifact recorded with
     the planted bug enabled replays with it enabled, so the historical
     violation actually reproduces. *)
  let planted =
    match Sim.Json.member "planted_bug" json with
    | Some (Sim.Json.Bool b) -> b
    | _ -> false
  in
  Format.printf "replaying %d injections from %s (workload seed %d%s)@."
    (List.length schedule) path seed
    (if planted then ", planted bug enabled" else "");
  let v = Workload.Chaos.run_spinnaker ~schedule ~planted_hole_ack_bug:planted ~seed () in
  List.iter
    (fun (invariant, detail) -> Format.printf "violation %s: %s@." invariant detail)
    v.Workload.Chaos.violations;
  if Workload.Chaos.failed v then
    Alcotest.failf "schedule replay reproduced %d violation(s)"
      (List.length v.Workload.Chaos.violations)

(* --- the transaction gauntlet: 2PC under failover-mid-commit --------------- *)

(* Twenty seeds of cross-range bank transfers under crash chaos whose hazard
   rate spikes while transfers are mid-protocol, so coordinator and
   participant leaders die together between prepare and resolve. The verdict
   carries the §1.1-style claims for transactions: atomicity + conservation
   (snapshot audits), serializability of the committed history, and zero
   orphaned in-doubt intents after recovery. A failing seed ddmins its
   schedule to a minimal reproduction and dumps the flight recorder's
   outlier traces next to it. *)
let run_txn_bank_seed seed =
  let v = Workload.Chaos.run_txn_bank ~seed () in
  if Workload.Chaos.failed v then begin
    Format.printf "@.txn-bank seed %d violations:@." seed;
    List.iter
      (fun (invariant, detail) -> Format.printf "  %s: %s@." invariant detail)
      v.Workload.Chaos.violations;
    (match v.Workload.Chaos.outliers with
    | Some json ->
      let path = Printf.sprintf "TRACE_outliers_txn_seed%d.json" seed in
      Sim.Json.to_file path json;
      Format.printf "outlier flight-recorder traces dumped to %s@." path
    | None -> ());
    (match Workload.Chaos.shrink_txn_bank ~seed () with
    | Some (minimal_verdict, minimal, stats) ->
      let path = Printf.sprintf "MINIMAL_SCHEDULE_txn_seed%d.json" seed in
      Sim.Json.to_file path
        (Workload.Chaos.json_of_verdict { minimal_verdict with schedule = minimal });
      Format.printf "ddmin: %d -> %d injections in %d replays; artifact: %s@."
        stats.Sim.Shrink.initial_injections stats.Sim.Shrink.final_injections
        stats.Sim.Shrink.replays path
    | None -> Format.printf "violation did not survive schedule replay (flaky exposure)@.");
    Alcotest.failf "seed %d: %d transaction invariant violation(s)" seed
      (List.length v.Workload.Chaos.violations)
  end;
  check_bool
    (Printf.sprintf "seed %d: transfers committed under chaos" seed)
    true (v.Workload.Chaos.acked > 0);
  check_bool
    (Printf.sprintf "seed %d: nothing left unresolved" seed)
    true
    (v.Workload.Chaos.indeterminate = 0)

let test_txn_chaos_battery () = List.iter run_txn_bank_seed (chaos_seeds ())

let test_chaos_survival () =
  match Sys.getenv_opt "NEMESIS_SCHEDULE" with
  | Some path -> run_schedule_replay path
  | None ->
  let seeds = chaos_seeds () in
  List.iter run_chaos_seed seeds;
  check_bool "loss drops observed across seeds" true (!total_lost > 0);
  check_bool "partition drops observed across seeds" true (!total_partitioned > 0);
  check_bool "duplicated deliveries observed across seeds" true (!total_duplicated > 0)

(* Exactly-once through shared clients: 1,024 keys written by four clients,
   so each client issues hundreds of ids a second across every range. With
   a fixed 128-id reply window these seeds re-executed retries whose
   outcomes the window had dropped (lossy 3, mixed 5 and 13), or a retry
   that a re-elected leader parked before its takeover rebuilt the in-flight
   markers (mixed 8). *)
let shared_client_seeds =
  [ (Workload.Chaos.Lossy, 3); (Workload.Chaos.Mixed, 5); (Workload.Chaos.Mixed, 8);
    (Workload.Chaos.Mixed, 13) ]

let test_shared_clients_apply_once () =
  List.iter
    (fun (profile, seed) ->
      let v = Workload.Chaos.run_spinnaker ~profile ~shared_clients:4 ~seed () in
      List.iter
        (fun (invariant, detail) -> Format.printf "violation [%s] %s@." invariant detail)
        v.Workload.Chaos.violations;
      check_bool
        (Printf.sprintf "%s seed %d: %d writes, no violation"
           (Workload.Chaos.profile_name profile) seed v.Workload.Chaos.n_writes)
        true
        (v.Workload.Chaos.violations = [] && v.Workload.Chaos.n_writes > 10_000))
    shared_client_seeds

let suite =
  [
    Alcotest.test_case "chaos schedules clamp zero-mean spans" `Quick
      test_chaos_clamps_zero_mean;
    Alcotest.test_case "shared clients: 1,024 keys written exactly once" `Quick
      test_shared_clients_apply_once;
    Alcotest.test_case "ZK-only cut: leader steps down, majority re-elects" `Slow
      test_zk_cut_leader_steps_down;
    Alcotest.test_case "lease fencing: no stale strong reads across ZK cuts" `Slow
      test_lease_fencing;
    Alcotest.test_case "chaos: crashes + partitions + loss + duplication" `Slow
      test_chaos_survival;
    Alcotest.test_case "txn chaos: 2PC bank transfers under failover-mid-commit" `Slow
      test_txn_chaos_battery;
  ]
