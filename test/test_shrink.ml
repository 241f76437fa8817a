(* The self-shrinking chaos harness: ddmin on synthetic schedules, schedule
   JSON round-trips, determinism regressions (same seed => byte-identical
   history fingerprint and injection log), and the planted-bug fixture — a
   guarded re-enable of the pre-fix follower hole-ack bug whose dozens-of-
   injections failing run must shrink to a handful that still reproduce.

   The minimal schedule the fixture finds is written to
   [MINIMAL_SCHEDULE_planted.json] (CI uploads it); replay it by hand with
   [NEMESIS_SCHEDULE=<path> dune exec test/test_main.exe -- test nemesis]. *)

module Chaos = Workload.Chaos
module Failure = Sim.Failure

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- ddmin on synthetic schedules (no simulation) ------------------------- *)

let crash_at us who =
  { Failure.at = Sim.Sim_time.at_us us; fault = { Failure.kind = Crash; who } }

let synthetic n = List.init n (fun i -> crash_at (1000 * (i + 1)) (Printf.sprintf "node-%d" i))

let contains who s = List.exists (fun (i : Failure.injection) -> String.equal i.fault.who who) s

let test_ddmin_pins_needed_pair () =
  let full = synthetic 20 in
  (* The "violation" needs exactly two of the twenty injections. *)
  let replay s = contains "node-3" s && contains "node-7" s in
  let minimal, stats = Sim.Shrink.ddmin ~replay full in
  check_int "minimal size" 2 (List.length minimal);
  check_bool "kept node-3" true (contains "node-3" minimal);
  check_bool "kept node-7" true (contains "node-7" minimal);
  (* Removal-only: original order survives. *)
  (match minimal with
  | [ a; b ] ->
    check_string "order preserved" "node-3" a.Failure.fault.who;
    check_string "order preserved" "node-7" b.Failure.fault.who
  | _ -> Alcotest.fail "expected exactly two injections");
  check_int "stats initial" 20 stats.Sim.Shrink.initial_injections;
  check_int "stats final" 2 stats.Sim.Shrink.final_injections;
  check_bool "replays counted" true (stats.Sim.Shrink.replays > 0);
  check_bool "replays bounded" true (stats.Sim.Shrink.replays <= 2000)

let test_ddmin_keeps_all_when_all_needed () =
  let full = synthetic 5 in
  let replay s = List.length s = 5 in
  let minimal, stats = Sim.Shrink.ddmin ~replay full in
  check_int "nothing removable" 5 (List.length minimal);
  check_int "final" 5 stats.Sim.Shrink.final_injections

let test_ddmin_floor_is_one_injection () =
  (* The shrinker never proposes the empty schedule — a violation that needs
     no injections at all is not a fault-schedule bug — so an always-failing
     predicate bottoms out at a single injection. *)
  let full = synthetic 8 in
  let minimal, _ = Sim.Shrink.ddmin ~replay:(fun _ -> true) full in
  check_int "shrinks to one" 1 (List.length minimal)

let test_ddmin_respects_budget () =
  let full = synthetic 64 in
  let replays = ref 0 in
  let replay s =
    incr replays;
    contains "node-13" s && contains "node-47" s
  in
  let minimal, stats = Sim.Shrink.ddmin ~max_replays:10 ~replay full in
  check_bool "budget respected" true (!replays <= 10 && stats.Sim.Shrink.replays <= 10);
  (* On exhaustion the best-so-far schedule must still fail. *)
  check_bool "result still fails" true (replay minimal)

(* --- the shrinker keeps the failure class ----------------------------------- *)

(* A synthetic gauntlet: node-2 and node-5 together lose an acknowledged
   write; node-5 without node-2 only leaves a node down after heal. *)
let synthetic_run schedule =
  let s = Option.value schedule ~default:(synthetic 10) in
  let violations =
    if contains "node-2" s && contains "node-5" s then [ ("lost-acked-write", "version 7 < 8 acked") ]
    else if contains "node-5" s then [ ("unavailable-after-heal", "final read failed") ]
    else []
  in
  {
    Chaos.seed = 0;
    profile = Chaos.Mixed;
    planted_bug = false;
    schedule = s;
    exposure = [];
    violations;
    fingerprint = "";
    acked = 0;
    indeterminate = 0;
    n_writes = 0;
    n_reads = 0;
    outliers = None;
    net = Sim.Network.stats (Sim.Network.create (Sim.Engine.create ~seed:0 ()) ());
  }

let classes schedule = List.map fst (synthetic_run (Some schedule)).Chaos.violations

let test_shrink_keeps_failure_class () =
  match Chaos.shrink synthetic_run with
  | None -> Alcotest.fail "the synthetic failure did not shrink"
  | Some (recorded, minimal, _) ->
    check_bool "recorded lost a write" true
      (List.mem_assoc "lost-acked-write" recorded.Chaos.violations);
    check_int "minimal size" 2 (List.length minimal);
    check_bool "minimal still loses a write" true (classes minimal = [ "lost-acked-write" ]);
    (* Accepting any violation slides to the other failure. *)
    let any, _ =
      Sim.Shrink.ddmin
        ~replay:(fun s -> Chaos.failed (synthetic_run (Some s)))
        recorded.Chaos.schedule
    in
    check_bool "any-violation oracle settles on the wrong class" true
      (classes any = [ "unavailable-after-heal" ])

(* --- schedule JSON round-trip --------------------------------------------- *)

let test_schedule_json_roundtrip () =
  let mk us kind who = { Failure.at = Sim.Sim_time.at_us us; fault = { Failure.kind; who } } in
  let schedule =
    [
      mk 10 Failure.Crash "node-1";
      mk 500 Failure.Engage "pair-partition 0<->3";
      mk 501 Failure.Engage "link-faults [0,1,2] loss=0.080 dup=0.080";
      mk 900 Failure.Disengage "pair-partition 0<->3";
      mk 1200 Failure.Restart "node-1";
      mk 1500 Failure.Destroy "node-4";
    ]
  in
  let json = Failure.json_of_schedule schedule in
  let text = Sim.Json.to_string json in
  match Sim.Json.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok reparsed -> (
    match Failure.schedule_of_json reparsed with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok decoded ->
      check_int "length" (List.length schedule) (List.length decoded);
      List.iter2
        (fun (a : Failure.injection) (b : Failure.injection) ->
          check_int "at" (Sim.Sim_time.time_to_us a.at) (Sim.Sim_time.time_to_us b.at);
          check_string "kind" (Failure.kind_to_string a.fault.kind)
            (Failure.kind_to_string b.fault.kind);
          check_string "who" a.fault.who b.fault.who)
        schedule decoded)

let test_artifact_json_accepts_verdict_object () =
  (* schedule_of_artifact_json must read the [injections] member of a full
     verdict artifact, so CI artifacts replay without surgery. *)
  let v = Chaos.run_spinnaker ~profile:Chaos.Crashes ~chaos_for:(Sim.Sim_time.sec 2)
      ~quiesce_for:(Sim.Sim_time.sec 5) ~seed:3 ()
  in
  let text = Sim.Json.to_string (Chaos.json_of_verdict v) in
  match Sim.Json.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok json -> (
    match Chaos.schedule_of_artifact_json json with
    | Error e -> Alcotest.failf "artifact decode failed: %s" e
    | Ok s -> check_int "schedule length" (List.length v.Chaos.schedule) (List.length s))

(* --- fault exposure as metrics gauges ------------------------------------- *)

let test_exposure_gauges () =
  let engine = Sim.Engine.create ~seed:9 () in
  let failure = Failure.create engine in
  let registry = Sim.Metrics.Registry.create engine in
  Failure.attach_metrics failure registry;
  let target =
    {
      Failure.label = "node-0";
      crash = (fun () -> ());
      restart = (fun () -> ());
      lose_disk = (fun () -> ());
    }
  in
  Failure.crash_at failure (Sim.Sim_time.at_us 100) target;
  Failure.restart_at failure (Sim.Sim_time.at_us 200) target;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 1);
  let gauge name =
    match
      List.find_opt
        (fun g -> String.equal (Sim.Metrics.Gauge.name g) name)
        (Sim.Metrics.Registry.gauges registry)
    with
    | Some g -> g
    | None -> Alcotest.failf "gauge %s not registered" name
  in
  (* Gauges read the live exposure counters; cluster-wide, so node -1. *)
  check_int "crash gauge" 1 (Sim.Metrics.Gauge.read (gauge "nemesis_crashes"));
  check_int "restart gauge" 1 (Sim.Metrics.Gauge.read (gauge "nemesis_restarts"));
  check_int "engage gauge" 0 (Sim.Metrics.Gauge.read (gauge "nemesis_engages"));
  check_int "cluster-wide node id" (-1) (Sim.Metrics.Gauge.node (gauge "nemesis_crashes"))

(* --- determinism regressions ---------------------------------------------- *)

let schedule_text s = Sim.Json.to_string (Failure.json_of_schedule s)

(* Same seed, same gauntlet => byte-identical history fingerprint and
   injection log. This is the regression that keeps replayable schedules
   honest: any nondeterminism in the engine, the RNG splits, or the fault
   layer shows up here first. *)
let test_seed_run_determinism () =
  let run () = Chaos.run_spinnaker ~profile:Chaos.Mixed ~seed:5 () in
  let a = run () and b = run () in
  check_string "fingerprint" a.Chaos.fingerprint b.Chaos.fingerprint;
  check_string "injection log" (schedule_text a.Chaos.schedule) (schedule_text b.Chaos.schedule);
  check_bool "ran chaos" true (List.length a.Chaos.schedule > 0)

let test_schedule_replay_determinism () =
  let recorded = Chaos.run_spinnaker ~profile:Chaos.Mixed ~seed:5 () in
  let replay () = Chaos.run_spinnaker ~schedule:recorded.Chaos.schedule ~seed:5 () in
  let a = replay () and b = replay () in
  check_string "replay fingerprint" a.Chaos.fingerprint b.Chaos.fingerprint;
  (* A replayed run's injection log is exactly its input schedule. *)
  check_string "log equals input" (schedule_text recorded.Chaos.schedule)
    (schedule_text a.Chaos.schedule)

(* Pinned fingerprints for fixed (profile, seed) pairs. Unlike the same-process
   check above, these goldens catch *cross-version* drift: any change to event
   ordering — the event heap, network delivery, timer queues, an RNG stream —
   silently reshuffles the history even when each individual run is still
   self-consistent. The event-heap rewrite (lazy cancellation, 4-ary layout,
   compaction) was required to preserve the exact (time, seq) pop order, and
   these values prove it did. If a future change is *meant* to alter the
   schedule (say, a different tie-break), re-capture deliberately:
     Workload.Chaos.run_spinnaker ~profile ~seed () |> fun r -> r.fingerprint
   The Lossy, Partitions, shared-client and transaction rows reach the
   catch-up, re-sync, stepdown and 2PC recovery paths that the Mixed and
   Crashes rows reach less often. *)
let spinnaker ?shared_clients profile seed () =
  Chaos.run_spinnaker ?shared_clients ~profile ~seed ()

let golden_fingerprints =
  [
    ("mixed 1", spinnaker Chaos.Mixed 1, "14b9341cfae79e2491c1b5fe8ffcc33b");
    ("mixed 7", spinnaker Chaos.Mixed 7, "0f9d431dd0b5584a05f71fcfa174f47e");
    ("mixed 42", spinnaker Chaos.Mixed 42, "d2f83eb2226c5eb94aefa68cdf10df87");
    ("crashes 1", spinnaker Chaos.Crashes 1, "3009cc3136957eccc37b4e5b4dd5cb73");
    ("crashes 7", spinnaker Chaos.Crashes 7, "e5b30ccb8c236cda916b69d908093580");
    ("crashes 42", spinnaker Chaos.Crashes 42, "be29a9a3a543def8715b70c3f32c33c1");
    ("lossy 1", spinnaker Chaos.Lossy 1, "f851e4d64f0f489969cf8541262be58f");
    ("partitions 7", spinnaker Chaos.Partitions 7, "c0a3914d9550c6c7758923c25f7cc45c");
    ( "shared-client mixed 5",
      spinnaker ~shared_clients:4 Chaos.Mixed 5,
      "993dd08bc407b09d1f14b71256a9eaa9" );
    ( "txn-bank 7001",
      (fun () -> Chaos.run_txn_bank ~seed:7001 ()),
      "7ce81e0150f9550f17f42c3231c26e08" );
  ]

let test_golden_fingerprints () =
  List.iter
    (fun (name, run, expected) ->
      let r = run () in
      check_bool (Printf.sprintf "%s run is clean" name) false (Chaos.failed r);
      check_string (Printf.sprintf "%s fingerprint" name) expected r.Chaos.fingerprint)
    golden_fingerprints

(* --- the planted-bug fixture ---------------------------------------------- *)

(* Re-enable the pre-fix follower ack bug (acking past loss-induced log
   holes) and shrink a seed that fails under it. The seed is the first,
   counting up from 1, whose planted run loses an acked write while the
   shipped code runs clean and whose schedule shrinks to at most three
   injections. Empirically, seed 12's mixed gauntlet fires 38 injections
   and ddmin pins the failure to two. *)
let planted_seed = 12

let test_planted_bug_shrinks () =
  (* Sanity: the shipped code survives this exact gauntlet. *)
  let fixed = Chaos.run_spinnaker ~profile:Chaos.Mixed ~seed:planted_seed () in
  check_bool "fixed code is clean" false (Chaos.failed fixed);
  match
    Chaos.shrink_spinnaker ~planted_hole_ack_bug:true ~profile:Chaos.Mixed ~seed:planted_seed ()
  with
  | None -> Alcotest.fail "planted bug did not fail (or did not replay)"
  | Some (recorded, minimal, stats) ->
    check_bool "recorded run failed" true (Chaos.failed recorded);
    check_bool "lost an acked write" true
      (List.mem_assoc "lost-acked-write" recorded.Chaos.violations);
    check_bool
      (Printf.sprintf "enough injections to be worth shrinking (%d)"
         stats.Sim.Shrink.initial_injections)
      true
      (stats.Sim.Shrink.initial_injections >= 20);
    check_bool
      (Printf.sprintf "minimal schedule is small (%d)" (List.length minimal))
      true
      (List.length minimal <= 3);
    (* The minimal schedule round-trips through JSON... *)
    let rt =
      match Failure.schedule_of_json (Failure.json_of_schedule minimal) with
      | Ok s -> s
      | Error e -> Alcotest.failf "minimal schedule does not round-trip: %s" e
    in
    check_string "round-trip is lossless" (schedule_text minimal) (schedule_text rt);
    (* ...replays deterministically, still reproducing the violation... *)
    let r1 = Chaos.run_spinnaker ~schedule:rt ~planted_hole_ack_bug:true ~seed:planted_seed () in
    let r2 = Chaos.run_spinnaker ~schedule:rt ~planted_hole_ack_bug:true ~seed:planted_seed () in
    check_bool "minimal schedule reproduces" true (Chaos.failed r1 && Chaos.failed r2);
    check_string "replay is deterministic" r1.Chaos.fingerprint r2.Chaos.fingerprint;
    (* ...and does NOT break the fixed code: the bug, not the schedule, is
       at fault. *)
    let on_fixed = Chaos.run_spinnaker ~schedule:rt ~seed:planted_seed () in
    check_bool "fixed code survives the minimal schedule" false (Chaos.failed on_fixed);
    (* Persist the artifact CI uploads; replay with NEMESIS_SCHEDULE=. *)
    let oc = open_out "MINIMAL_SCHEDULE_planted.json" in
    output_string oc (Sim.Json.to_string (Chaos.json_of_verdict { r1 with schedule = minimal }));
    output_char oc '\n';
    close_out oc;
    (* The failing replay's flight-recorder pins ride along: the slowest
       requests' causal traces from the very run that violated the
       invariant, next to the schedule that reproduces it. *)
    (match r1.Chaos.outliers with
    | Some json ->
      let oc = open_out "TRACE_outliers_planted.json" in
      output_string oc (Sim.Json.to_string json);
      output_char oc '\n';
      close_out oc
    | None -> ())

let suite =
  [
    Alcotest.test_case "ddmin pins the needed pair out of 20" `Quick test_ddmin_pins_needed_pair;
    Alcotest.test_case "ddmin keeps a schedule that is all needed" `Quick
      test_ddmin_keeps_all_when_all_needed;
    Alcotest.test_case "ddmin never proposes the empty schedule" `Quick
      test_ddmin_floor_is_one_injection;
    Alcotest.test_case "ddmin respects the replay budget" `Quick test_ddmin_respects_budget;
    Alcotest.test_case "shrinker keeps the recorded failure class" `Quick
      test_shrink_keeps_failure_class;
    Alcotest.test_case "schedule JSON round-trips" `Quick test_schedule_json_roundtrip;
    Alcotest.test_case "artifact JSON accepts a verdict object" `Slow
      test_artifact_json_accepts_verdict_object;
    Alcotest.test_case "fault exposure surfaces as nemesis_* gauges" `Quick
      test_exposure_gauges;
    Alcotest.test_case "same seed, same history fingerprint" `Slow test_seed_run_determinism;
    Alcotest.test_case "schedule replay is deterministic" `Slow
      test_schedule_replay_determinism;
    Alcotest.test_case "history fingerprints match pinned goldens" `Slow
      test_golden_fingerprints;
    Alcotest.test_case "planted hole-ack bug shrinks to a minimal schedule" `Slow
      test_planted_bug_shrinks;
  ]
