(* Jepsen-style nemesis runs: lossy and asymmetric network faults, randomized
   partition/heal schedules composed with crash chaos, duplicated deliveries,
   and coordination-service cuts.

   The chaos property drives every seed through {!Workload.Chaos}'s [Mixed]
   gauntlet and fails on any violation of its check set, which asserts the
   paper's §1.1 claims the hard way:

   - no acked write is ever lost (final version >= acked count per key);
   - no write — acked or retried — is applied twice (final version <= acked +
     indeterminate, and no origin appears twice in the committed log);
   - strong reads stay linearizable throughout (history checker).

   A failing seed prints its violations, shrinks its schedule to a minimal
   reproduction, and is reproducible alone with
   e.g. [NEMESIS_SEEDS=7 dune exec test/test_main.exe -- test nemesis]. To
   replay an explicit fault schedule instead of a seed — a shrunk
   MINIMAL_SCHEDULE artifact, say — point [NEMESIS_SCHEDULE] at the JSON
   file (a bare schedule array or a verdict object with an [injections]
   field); the chaos test then re-executes those injections through the
   {!Workload.Chaos} harness and fails with the verdict's violations. *)

open Spinnaker
module Lsn = Storage.Lsn

let check_bool = Alcotest.(check bool)

let test_config = Workload.Chaos.default_config

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
  check_bool "write succeeds under the cut" true
    (match Workload.Chaos.drive engine ~polls:500 (fun () -> !r) with
    | Some (Ok ()) -> true
    | _ -> false);
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
  (match Workload.Chaos.drive engine ~polls:500 (fun () -> !r0) with
  | Some (Ok ()) -> acked := 0
  | Some (Error e) -> Alcotest.failf "seed %d: seed write failed: %a" seed Client.pp_error e
  | None -> Alcotest.failf "seed %d: seed write never settled" seed);
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

(* A failing gauntlet seed prints its violations, dumps its flight-recorder
   outliers, and ddmins its schedule to a minimal reproduction artifact. *)
let fail_verdict ~what ~shrink (v : Workload.Chaos.verdict) =
  let seed = v.Workload.Chaos.seed in
  Format.printf "@.%s seed %d violations:@." what seed;
  List.iter
    (fun (invariant, detail) -> Format.printf "  %s: %s@." invariant detail)
    v.Workload.Chaos.violations;
  (match v.Workload.Chaos.outliers with
  | Some json ->
    let path = Printf.sprintf "TRACE_outliers_%s_seed%d.json" what seed in
    Sim.Json.to_file path json;
    Format.printf "outlier flight-recorder traces dumped to %s@." path
  | None -> ());
  (match shrink () with
  | Some (minimal_verdict, minimal, stats) ->
    let path = Printf.sprintf "MINIMAL_SCHEDULE_%s_seed%d.json" what seed in
    Sim.Json.to_file path
      (Workload.Chaos.json_of_verdict { minimal_verdict with schedule = minimal });
    Format.printf "ddmin: %d -> %d injections in %d replays; artifact: %s@."
      stats.Sim.Shrink.initial_injections stats.Sim.Shrink.final_injections
      stats.Sim.Shrink.replays path
  | None -> Format.printf "violation did not survive schedule replay (flaky exposure)@.");
  Alcotest.failf "%s seed %d: %d invariant violation(s)" what seed
    (List.length v.Workload.Chaos.violations)

(* Aggregated across seeds so the per-cause drop counters can be asserted
   meaningfully (one seed's schedule might not engage every fault kind). *)
let total_lost = ref 0
let total_partitioned = ref 0
let total_duplicated = ref 0

let run_chaos_seed seed =
  let profile = Workload.Chaos.Mixed in
  let v = Workload.Chaos.run_spinnaker ~profile ~seed () in
  if Workload.Chaos.failed v then
    fail_verdict ~what:"nemesis" v ~shrink:(fun () ->
        Workload.Chaos.shrink_spinnaker ~profile ~seed ());
  let net = v.Workload.Chaos.net in
  total_lost := !total_lost + net.Sim.Metrics.net_dropped_lost;
  total_partitioned := !total_partitioned + net.Sim.Metrics.net_dropped_partitioned;
  total_duplicated := !total_duplicated + net.Sim.Metrics.net_duplicated;
  check_bool
    (Printf.sprintf "seed %d: load was substantial" seed)
    true
    (v.Workload.Chaos.n_writes > 100 && v.Workload.Chaos.n_reads > 100)

let load_artifact path =
  match Result.bind (Sim.Json.of_file path) (fun json ->
            Result.map (fun s -> (json, s)) (Workload.Chaos.schedule_of_artifact_json json))
  with
  | Ok artifact -> artifact
  | Error e -> Alcotest.failf "%s: %s" path e

(* Replay an explicit injection schedule (NEMESIS_SCHEDULE=<file>). The seed
   still feeds the workload streams — same seed + same schedule is the
   reproduction contract — so a verdict artifact's own [seed] field wins,
   then NEMESIS_SEEDS (first entry), then 1. *)
let run_schedule_replay path =
  let json, schedule = load_artifact path in
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

(* Replay a shrunk Mixed schedule of [seed] from [test/fixtures] at 160 s;
   the run must end clean. *)
let replay_fixture ~seed name () =
  let path = List.find Sys.file_exists [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  let _, schedule = load_artifact path in
  let v = Workload.Chaos.run_spinnaker ~schedule ~chaos_for:(Sim.Sim_time.sec 160) ~seed () in
  Alcotest.(check (list (pair string string))) "clean verdict" [] v.Workload.Chaos.violations

(* A schedule on which a takeover re-queued records an earlier takeover had
   truncated logically: no follower would ever ack them, so the new leader
   of range 0 waited in [takeover_commit_wait] forever and the range had no
   open leader after heal. The schedule was kept only while the unfixed
   takeover failed on it and the fixed one ran clean. *)
let test_truncated_records_stay_dead =
  replay_fixture ~seed:45 "takeover_truncated_seed45.json"

(* The plain ddmin-minimal schedule of the same seed (205 injections): a
   takeover rebuilt both 16.1713 and 17.1713 from its log, committed the
   deposed epoch's record, and 17.1713 never got a contiguous ack, so range 0
   again had no open leader after heal. Only the newest epoch at a seq can
   have committed, so a takeover truncates the older records. *)
let test_superseded_records_stay_dead =
  replay_fixture ~seed:45 "takeover_superseded_seed45.json"

(* Seed 43: a replica that lost range 0's election read /leader before the
   winner wrote it and only then armed its watch, so it never learned the
   winner. It stayed a candidate, re-announced when the winner's cleanup
   deleted its znode, and after heal answered the final reads routed to it
   [Not_leader] with no hint. The schedule was shrunk on the code before the
   arm-then-read fix, where it fails [unavailable-after-heal]. *)
let test_loser_learns_the_winner = replay_fixture ~seed:43 "election_loser_seed43.json"

(* Seed 110: a replica that had truncated a record logically during its own
   catch-up still served it, from below its cmt, when it later caught up
   another follower as leader; that follower applied a write that never
   committed, and two client writes ended committed twice ([double-apply]).
   Shrunk from 590 to 31 injections on the code before catch-up consulted
   the skipped-LSN list, where it fails. *)
let test_catchup_ships_only_live_records =
  replay_fixture ~seed:110 "catchup_truncated_seed110.json"

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
  if Workload.Chaos.failed v then
    fail_verdict ~what:"txn" v ~shrink:(fun () -> Workload.Chaos.shrink_txn_bank ~seed ());
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
    Alcotest.test_case "replay: a takeover keeps truncated records dead" `Slow
      test_truncated_records_stay_dead;
    Alcotest.test_case "replay: a takeover keeps superseded-epoch records dead" `Slow
      test_superseded_records_stay_dead;
    Alcotest.test_case "replay: an election's loser learns the winner" `Slow
      test_loser_learns_the_winner;
    Alcotest.test_case "replay: catch-up ships no truncated record" `Slow
      test_catchup_ships_only_live_records;
  ]
