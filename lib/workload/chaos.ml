(* The chaos harness behind the nemesis tests, the shrinker fixture, and the
   cross-backend audit battery. One seeded run = keyed serial writers plus
   concurrent strong readers driven through a fault profile, then heal,
   quiesce, and check the §1.1 claims; instead of asserting, the run returns
   a [verdict] whose violation list the caller (a test, the ddmin shrinker's
   oracle, or `bench audit`) interprets. Passing [?schedule] replays an
   explicit injection log — seed-free chaos — against a pre-registered
   universe of crash targets and fault toggles. *)

open Spinnaker
module Failure = Sim.Failure

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                      *)

type profile = Steady | Crashes | Partitions | Lossy | Mixed

let profile_name = function
  | Steady -> "steady"
  | Crashes -> "crashes"
  | Partitions -> "partitions"
  | Lossy -> "lossy"
  | Mixed -> "mixed"

let profile_of_string = function
  | "steady" -> Some Steady
  | "crashes" -> Some Crashes
  | "partitions" -> Some Partitions
  | "lossy" -> Some Lossy
  | "mixed" -> Some Mixed
  | _ -> None

(* Lossy-link parameters are module constants so the toggle's label — the
   name injections carry in a schedule — is identical in the run that
   records and the run that replays. *)
let lossy_loss = 0.08
let lossy_duplicate = 0.08
let lossy_jitter = Sim.Distribution.Uniform (0.0, 400.0)

let default_config =
  {
    Config.default with
    Config.nodes = 5;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

type verdict = {
  seed : int;
  profile : profile;
  planted_bug : bool;
  schedule : Failure.schedule;
  exposure : (string * int) list;
  violations : (string * string) list;
  fingerprint : string;
  acked : int;
  indeterminate : int;
  n_writes : int;
  n_reads : int;
  outliers : Sim.Json.t option;
      (** flight-recorder dump (Perfetto trace of the run's slowest pinned
          requests), captured automatically when the verdict has violations
          so the failure ships with its own latency evidence *)
}

let failed v = v.violations <> []

let json_of_verdict v =
  Sim.Json.Obj
    [
      ("seed", Sim.Json.Int v.seed);
      ("profile", Sim.Json.String (profile_name v.profile));
      ("planted_bug", Sim.Json.Bool v.planted_bug);
      ( "violations",
        Sim.Json.List
          (List.map
             (fun (invariant, detail) ->
               Sim.Json.Obj
                 [
                   ("invariant", Sim.Json.String invariant);
                   ("detail", Sim.Json.String detail);
                 ])
             v.violations) );
      ("fingerprint", Sim.Json.String v.fingerprint);
      ("acked", Sim.Json.Int v.acked);
      ("indeterminate", Sim.Json.Int v.indeterminate);
      ("writes", Sim.Json.Int v.n_writes);
      ("reads", Sim.Json.Int v.n_reads);
      ("injections", Failure.json_of_schedule v.schedule);
    ]

let schedule_of_artifact_json = function
  | Sim.Json.List _ as l -> Failure.schedule_of_json l
  | Sim.Json.Obj _ as o -> (
    match Sim.Json.member "injections" o with
    | Some s -> Failure.schedule_of_json s
    | None -> Error "artifact object has no \"injections\" field")
  | _ -> Error "expected a schedule array or a verdict artifact object"

(* ------------------------------------------------------------------ *)
(* The replayable fault universe                                       *)

(* Register every subject a recorded schedule could name, whether or not
   this run's own generators would have drawn it: crash targets for all
   nodes, symmetric and one-way partition toggles for all pairs, the lossy
   episode, and per-node coordination-service cuts. *)
let register_universe failure cluster =
  let net = Cluster.net cluster in
  let nodes = Array.length (Cluster.nodes cluster) in
  let all = List.init nodes Fun.id in
  List.iter (Failure.register_target failure) (Cluster.failure_targets cluster);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then
            Failure.register_toggle failure (Failure.pair_partition_toggle net a b);
          if a <> b then
            Failure.register_toggle failure (Failure.oneway_toggle net ~src:a ~dst:b))
        all)
    all;
  Failure.register_toggle failure
    (Failure.link_faults_toggle net ~loss:lossy_loss ~duplicate:lossy_duplicate
       ~jitter:lossy_jitter all);
  List.iter
    (fun n ->
      Failure.register_toggle failure
        (Failure.toggle
           ~label:(Printf.sprintf "zk-cut-n%d" n)
           ~engage:(fun () -> Cluster.set_zk_reachable cluster n false)
           ~disengage:(fun () -> Cluster.set_zk_reachable cluster n true)))
    all

(* Seed-driven gauntlet for one profile. [Mixed] composes everything and
   adds a hazard crash process whose per-tick probability spikes while a
   replica migration is in flight — a live signal a seed alone cannot
   encode, which is exactly why fired injections are logged for replay. *)
let unleash failure cluster ~profile ~until =
  let net = Cluster.net cluster in
  let nodes = Array.length (Cluster.nodes cluster) in
  let all_nodes = List.init nodes Fun.id in
  let targets = Cluster.failure_targets cluster in
  let crash_targets = List.filteri (fun i _ -> i < 2) targets in
  let crashes () =
    Failure.chaos failure
      ~mean_time_to_failure:(Sim.Sim_time.sec 3)
      ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
      ~until crash_targets
  in
  let partitions () =
    Failure.random_pair_partition_chaos failure net ~nodes:all_nodes
      ~mean_time_to_fault:(Sim.Sim_time.ms 1500)
      ~mean_time_to_heal:(Sim.Sim_time.ms 700)
      ~until
  in
  let lossy () =
    let tog =
      Failure.link_faults_toggle net ~loss:lossy_loss ~duplicate:lossy_duplicate
        ~jitter:lossy_jitter all_nodes
    in
    Failure.toggle_chaos failure
      ~mean_time_to_fault:(Sim.Sim_time.ms 900)
      ~mean_time_to_heal:(Sim.Sim_time.ms 900)
      ~until [ tog ]
  in
  match profile with
  | Steady -> ()
  | Crashes -> crashes ()
  | Partitions -> partitions ()
  | Lossy -> lossy ()
  | Mixed ->
    crashes ();
    partitions ();
    lossy ();
    let zkn = nodes - 1 in
    let zk =
      Failure.toggle
        ~label:(Printf.sprintf "zk-cut-n%d" zkn)
        ~engage:(fun () -> Cluster.set_zk_reachable cluster zkn false)
        ~disengage:(fun () -> Cluster.set_zk_reachable cluster zkn true)
    in
    Failure.toggle_chaos failure
      ~mean_time_to_fault:(Sim.Sim_time.sec 4)
      ~mean_time_to_heal:(Sim.Sim_time.sec 1)
      ~until [ zk ];
    if nodes > 2 then
      Failure.hazard_crash_chaos failure
        ~period:(Sim.Sim_time.ms 250)
        ~p_per_tick:0.02
        ~multiplier:(fun () ->
          if Cluster.migrations_in_flight cluster > 0 then 6.0 else 1.0)
        ~max_concurrent:1
        ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
        ~until
        [ List.nth targets 2 ]

let heal_everything cluster =
  let net = Cluster.net cluster in
  let nodes = Array.length (Cluster.nodes cluster) in
  let all_nodes = List.init nodes Fun.id in
  Sim.Network.heal net;
  Sim.Network.clear_default_faults net;
  List.iter
    (fun s ->
      List.iter
        (fun d -> if s <> d then Sim.Network.clear_link_faults net ~src:s ~dst:d)
        all_nodes)
    all_nodes;
  List.iter (fun n -> Cluster.set_zk_reachable cluster n true) all_nodes;
  List.iter (fun n -> Cluster.restart_node cluster n) all_nodes

(* ------------------------------------------------------------------ *)
(* The Spinnaker gauntlet run                                          *)

type outcome_count = { mutable acked : int; mutable indeterminate : int }

(* Serial writer per key, values = sequence numbers: the final version
   counter must land in [acked, acked + indeterminate]. *)
let spawn_probe_writer engine client history outcomes running ~key ~period =
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
          ignore (Sim.Engine.schedule engine ~after:period write_loop))
    end
  in
  write_loop ()

let spawn_probe_reader engine client history running ~key ~period =
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
          ignore (Sim.Engine.schedule engine ~after:period read_loop))
    end
  in
  read_loop ()

let drive_read engine client ~key =
  let r = ref None in
  Client.get client key "c" (fun x -> r := Some x);
  let rec drive n =
    match !r with
    | Some v -> v
    | None when n = 0 -> Error Client.Timed_out
    | None ->
      Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
      drive (n - 1)
  in
  drive 3000

(* Exactly-once at the log level: in the committed, non-truncated prefix no
   (client, request id) origin may appear under two LSNs. *)
let check_no_double_commit cluster flag =
  let partition = Cluster.partition cluster in
  for range = 0 to Partition.ranges partition - 1 do
    match Cluster.leader_of cluster ~range with
    | None -> flag "layout-incoherence" (Printf.sprintf "range %d has no open leader after heal" range)
    | Some l -> (
      let node = Cluster.node cluster l in
      match Node.cohort node ~range with
      | None -> ()
      | Some c ->
        (* The durable records ascend, so one merge walk over the skipped
           LSNs answers every query. *)
        let skipped =
          Storage.Skipped_lsns.ascending_mem (Storage.Store.skipped (Cohort.store c))
            ~from:Storage.Lsn.zero
        in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun (lsn, _, _, origin) ->
            if not (skipped lsn) then
              match origin with
              | None -> ()
              | Some { Storage.Log_record.client; request_id; _ } -> (
                match Hashtbl.find_opt seen (client, request_id) with
                | Some prev when not (Storage.Lsn.equal prev lsn) ->
                  flag "double-apply"
                    (Printf.sprintf "range %d origin (c%d,#%d) committed twice (lsn %s and %s)"
                       range client request_id (Storage.Lsn.to_string prev)
                       (Storage.Lsn.to_string lsn))
                | _ -> Hashtbl.replace seen (client, request_id) lsn))
          (Storage.Wal.durable_writes_in (Node.wal node) ~cohort:range
             ~above:Storage.Lsn.zero ~upto:(Cohort.cmt c)))
  done

(* The shared-client variant's keys: enough serial writers that a client's
   retry can trail its original by hundreds of ids. *)
let shared_keys = 1024

let run_spinnaker ?(config = default_config) ?(profile = Mixed) ?schedule
    ?(planted_hole_ack_bug = false) ?shared_clients ?(chaos_for = Sim.Sim_time.sec 10)
    ?(quiesce_for = Sim.Sim_time.sec 10) ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create ~planted_hole_ack_bug engine config in
  Cluster.start cluster;
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let verdict ~schedule ~exposure ~fingerprint ~acked ~indeterminate ~n_writes ~n_reads =
    (* A failing run carries its flight-recorder pins out with it: the
       slowest requests' full causal traces, dumpable next to the schedule
       artifact without re-running anything. *)
    let outliers =
      if !violations <> [] && Sim.Trace.Flight.pinned (Cluster.flight cluster) > 0 then
        Some (Sim.Trace_export.outliers_to_json (Cluster.flight cluster))
      else None
    in
    {
      seed;
      profile;
      planted_bug = planted_hole_ack_bug;
      schedule;
      exposure;
      violations = List.rev !violations;
      fingerprint;
      acked;
      indeterminate;
      n_writes;
      n_reads;
      outliers;
    }
  in
  if not (Cluster.run_until_ready cluster) then begin
    flag "setup" "cluster never became ready";
    verdict ~schedule:[] ~exposure:[] ~fingerprint:"" ~acked:0 ~indeterminate:0
      ~n_writes:0 ~n_reads:0
  end
  else begin
    let partition = Cluster.partition cluster in
    let failure = Failure.create engine in
    register_universe failure cluster;
    (* Satellite: fault exposure doubles as nemesis_* gauges in the cluster
       registry, sampled alongside the storage gauges. *)
    Failure.attach_metrics failure (Cluster.metrics cluster);
    let history = History.create () in
    (* One client per key keeps each client's id stream slow. The shared
       variant runs [shared_keys] serial writers through a few clients, so
       each client issues hundreds of ids a second across every range. *)
    let keys, writer, period =
      match shared_clients with
      | None ->
        ( List.map (Partition.key_of_int partition) [ 3; 47; 91 ],
          (fun _ -> Cluster.new_client cluster),
          Sim.Sim_time.ms 60 )
      | Some n ->
        let clients = Array.init n (fun _ -> Cluster.new_client cluster) in
        let stride = Partition.key_space partition / shared_keys in
        ( List.init shared_keys (fun i -> Partition.key_of_int partition (i * stride)),
          (fun i -> clients.(i mod n)),
          Sim.Sim_time.ms 500 )
    in
    let outcomes = Hashtbl.create 8 in
    List.iter
      (fun key -> Hashtbl.replace outcomes key { acked = 0; indeterminate = 0 })
      keys;
    let running = ref true in
    List.iteri
      (fun i key ->
        spawn_probe_writer engine (writer i) history outcomes running ~key ~period)
      keys;
    List.iteri
      (fun i key ->
        if i < 3 then
          spawn_probe_reader engine (Cluster.new_client cluster) history running ~key
            ~period:(Sim.Sim_time.ms 45))
      keys;
    let until = Sim.Sim_time.add (Sim.Engine.now engine) chaos_for in
    (match schedule with
    | Some s -> Failure.apply failure s
    | None -> unleash failure cluster ~profile ~until);
    Sim.Engine.run_for engine (Sim.Sim_time.span_add chaos_for (Sim.Sim_time.sec 1));
    running := false;
    heal_everything cluster;
    Sim.Engine.run_for engine quiesce_for;
    (* Final strong reads close the history and pin each key's version. *)
    let final_client = Cluster.new_client cluster in
    List.iter
      (fun key ->
        let invoked = Sim.Engine.now engine in
        match drive_read engine final_client ~key with
        | Ok Client.{ value; version } ->
          History.record_read history ~key
            ~observed:(Option.map int_of_string value)
            ~invoked
            ~completed:(Sim.Engine.now engine);
          let o = Hashtbl.find outcomes key in
          if version < o.acked then
            flag "lost-acked-write"
              (Printf.sprintf "key %s: version %d < %d acked" key version o.acked);
          if version > o.acked + o.indeterminate then
            flag "double-apply"
              (Printf.sprintf "key %s: version %d > %d acked + %d indeterminate" key
                 version o.acked o.indeterminate)
        | _ -> flag "unavailable-after-heal" (Printf.sprintf "final read of %s failed" key))
      keys;
    check_no_double_commit cluster flag;
    List.iter
      (fun v ->
        flag "linearizability" (Format.asprintf "%a" History.pp_violation v))
      (History.check history);
    let acked = Hashtbl.fold (fun _ o a -> a + o.acked) outcomes 0 in
    let indeterminate = Hashtbl.fold (fun _ o a -> a + o.indeterminate) outcomes 0 in
    verdict ~schedule:(Failure.injections failure) ~exposure:(Failure.exposure failure)
      ~fingerprint:(History.fingerprint history) ~acked ~indeterminate
      ~n_writes:(History.writes history) ~n_reads:(History.reads history)
  end

(* Shrinking: ddmin over the recorded schedule. The oracle accepts a replay
   only if it shows one of the invariants the recorded run violated, so the
   shrinker cannot slide from the failure it was given to a different one
   (say, to a schedule that merely leaves a node down). The baseline replay
   of the full log is checked first so the shrinker never chases a failure
   that does not survive the record/replay round-trip. *)
let shrink ?max_replays run =
  let recorded = run None in
  let same_failure v =
    List.exists (fun (invariant, _) -> List.mem_assoc invariant recorded.violations) v.violations
  in
  if not (failed recorded && same_failure (run (Some recorded.schedule))) then None
  else
    let minimal, stats =
      Sim.Shrink.ddmin ?max_replays
        ~replay:(fun s -> same_failure (run (Some s)))
        recorded.schedule
    in
    Some (recorded, minimal, stats)

let shrink_spinnaker ?config ?profile ?planted_hole_ack_bug ?chaos_for ?quiesce_for
    ?max_replays ~seed () =
  shrink ?max_replays (fun schedule ->
      run_spinnaker ?config ?profile ?schedule ?planted_hole_ack_bug ?chaos_for
        ?quiesce_for ~seed ())

(* ------------------------------------------------------------------ *)
(* The transaction gauntlet: cross-range bank transfers under crashes  *)

(* Crash chaos aimed at 2PC's weakest moment: a hazard process whose rate
   multiplies while transfers are mid-protocol, with two concurrent crash
   slots — so a coordinator's leader and a participant's leader die together
   between prepare and resolve. Recovery then has to finish the transaction
   from its logs: decision lookup, presumed abort, intent sweep. *)
let unleash_txn failure cluster ~in_flight ~until =
  let targets = Cluster.failure_targets cluster in
  (match targets with
  | first :: _ ->
    Failure.chaos failure
      ~mean_time_to_failure:(Sim.Sim_time.sec 4)
      ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
      ~until [ first ]
  | [] -> ());
  let hazard_targets = List.filteri (fun i _ -> i >= 1 && i < 3) targets in
  if hazard_targets <> [] then
    Failure.hazard_crash_chaos failure
      ~period:(Sim.Sim_time.ms 200)
      ~p_per_tick:0.015
      ~multiplier:(fun () -> if !in_flight > 0 then 8.0 else 1.0)
      ~max_concurrent:2
      ~mean_time_to_repair:(Sim.Sim_time.ms 1200)
      ~until hazard_targets

(* After heal + quiesce the intent sweep must have converged every range on
   every replica: a write intent with no live transaction is an orphan that
   would block snapshot readers forever. *)
let check_no_orphaned_intents cluster flag =
  let partition = Cluster.partition cluster in
  Array.iteri
    (fun n node ->
      for range = 0 to Partition.ranges partition - 1 do
        match Node.cohort node ~range with
        | None -> ()
        | Some c ->
          List.iter
            (fun (txn, _, coords) ->
              flag "orphaned-intent"
                (Printf.sprintf
                   "node %d range %d: txn %s still holds %d intents after quiesce" n
                   range txn (List.length coords)))
            (Storage.Store.live_intents (Cohort.store c))
      done)
    (Cluster.nodes cluster)

let run_txn_bank ?(config = default_config) ?schedule
    ?(chaos_for = Sim.Sim_time.sec 8) ?(quiesce_for = Sim.Sim_time.sec 12) ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine config in
  Cluster.start cluster;
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let verdict ~schedule ~exposure ~fingerprint ~acked ~indeterminate ~n_writes ~n_reads =
    let outliers =
      if !violations <> [] && Sim.Trace.Flight.pinned (Cluster.flight cluster) > 0 then
        Some (Sim.Trace_export.outliers_to_json (Cluster.flight cluster))
      else None
    in
    {
      seed;
      profile = Crashes;
      planted_bug = false;
      schedule;
      exposure;
      violations = List.rev !violations;
      fingerprint;
      acked;
      indeterminate;
      n_writes;
      n_reads;
      outliers;
    }
  in
  if not (Cluster.run_until_ready cluster) then begin
    flag "setup" "cluster never became ready";
    verdict ~schedule:[] ~exposure:[] ~fingerprint:"" ~acked:0 ~indeterminate:0
      ~n_writes:0 ~n_reads:0
  end
  else begin
    let failure = Failure.create engine in
    register_universe failure cluster;
    Failure.attach_metrics failure (Cluster.metrics cluster);
    let in_flight = ref 0 in
    let until = Sim.Sim_time.add (Sim.Engine.now engine) chaos_for in
    (match schedule with
    | Some s -> Failure.apply failure s
    | None -> unleash_txn failure cluster ~in_flight ~until);
    let bank =
      Experiment.run_bank ~engine ~cluster ~accounts:12 ~threads:4
        ~duration:chaos_for ~in_flight
        ~heal:(fun () -> heal_everything cluster)
        ~quiesce:quiesce_for ()
    in
    List.iter (fun (invariant, detail) -> flag invariant detail)
      bank.Experiment.bank_violations;
    check_no_orphaned_intents cluster flag;
    verdict ~schedule:(Failure.injections failure) ~exposure:(Failure.exposure failure)
      ~fingerprint:(History.fingerprint bank.Experiment.bank_history)
      ~acked:bank.Experiment.transfers_committed
      ~indeterminate:bank.Experiment.transfers_unresolved
      ~n_writes:(History.txns bank.Experiment.bank_history)
      ~n_reads:bank.Experiment.bank_audits
  end

let shrink_txn_bank ?config ?chaos_for ?quiesce_for ?max_replays ~seed () =
  shrink ?max_replays (fun schedule ->
      run_txn_bank ?config ?schedule ?chaos_for ?quiesce_for ~seed ())

(* ------------------------------------------------------------------ *)
(* Audit cells: one backend under one fault profile and workload spec  *)

type audit = {
  a_outcome : Experiment.outcome;
  a_exposure : (string * int) list;
  a_net : Sim.Json.t option;
  a_violations : (string * string) list;
}

let audit_spinnaker ?(track = fun (_ : Sim.Engine.t) -> ()) ~seed ~config ~profile ~spec ~key_space () =
  let engine = Sim.Engine.create ~seed () in
  track engine;
  let cluster = Cluster.create engine config in
  Cluster.start cluster;
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  if not (Cluster.run_until_ready cluster) then
    flag "setup" "cluster never became ready";
  let failure = Failure.create engine in
  register_universe failure cluster;
  Failure.attach_metrics failure (Cluster.metrics cluster);
  let history = History.create () in
  let partition = Cluster.partition cluster in
  let probe_key = Partition.key_of_int partition 7 in
  let outcomes = Hashtbl.create 1 in
  Hashtbl.replace outcomes probe_key { acked = 0; indeterminate = 0 };
  let running = ref true in
  spawn_probe_writer engine (Cluster.new_client cluster) history outcomes running
    ~key:probe_key ~period:(Sim.Sim_time.ms 80);
  spawn_probe_reader engine (Cluster.new_client cluster) history running
    ~key:probe_key ~period:(Sim.Sim_time.ms 65);
  let horizon =
    Sim.Sim_time.add
      (Sim.Sim_time.add (Sim.Engine.now engine) spec.Experiment.warmup)
      spec.Experiment.measure
  in
  unleash failure cluster ~profile ~until:horizon;
  let outcome =
    Experiment.run ~engine ~key_space
      ~make_driver:(Driver.spinnaker cluster ~consistent_reads:true)
      spec
  in
  running := false;
  heal_everything cluster;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 8);
  let final_client = Cluster.new_client cluster in
  (match drive_read engine final_client ~key:probe_key with
  | Ok Client.{ version; _ } ->
    let o = Hashtbl.find outcomes probe_key in
    if version < o.acked then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: version %d < %d acked" version o.acked);
    if version > o.acked + o.indeterminate then
      flag "double-apply"
        (Printf.sprintf "probe key: version %d > %d acked + %d indeterminate" version
           o.acked o.indeterminate)
  | _ -> flag "unavailable-after-heal" "final probe read failed");
  List.iter
    (fun v -> flag "linearizability" (Format.asprintf "%a" History.pp_violation v))
    (History.check history);
  {
    a_outcome = outcome;
    a_exposure = Failure.exposure failure;
    a_net = Some (Sim.Metrics.json_of_net_stats (Sim.Network.stats (Cluster.net cluster)));
    a_violations = List.rev !violations;
  }

(* The eventually consistent baseline has no linearizability promise to
   check; what it does promise (QUORUM writes forced to the WAL before the
   ack, R + W > N) is that an acked quorum write survives crashes and is
   visible to a healed quorum read — the lost-acked-write invariant only. *)
let audit_eventual ?(track = fun (_ : Sim.Engine.t) -> ()) ~seed ~config ~profile ~spec ~key_space () =
  let engine = Sim.Engine.create ~seed () in
  track engine;
  let cluster = Eventual.Cas_cluster.create engine config in
  Eventual.Cas_cluster.start cluster;
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let failure = Failure.create engine in
  let net = Eventual.Cas_cluster.net cluster in
  let nodes = config.Config.nodes in
  let all_nodes = List.init nodes Fun.id in
  let targets = Eventual.Cas_cluster.failure_targets cluster in
  let horizon =
    Sim.Sim_time.add
      (Sim.Sim_time.add (Sim.Engine.now engine) spec.Experiment.warmup)
      spec.Experiment.measure
  in
  (match profile with
  | Steady -> ()
  | Crashes | Mixed ->
    Failure.chaos failure
      ~mean_time_to_failure:(Sim.Sim_time.sec 3)
      ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
      ~until:horizon
      (List.filteri (fun i _ -> i < 2) targets)
  | Partitions ->
    Failure.random_pair_partition_chaos failure net ~nodes:all_nodes
      ~mean_time_to_fault:(Sim.Sim_time.ms 1500)
      ~mean_time_to_heal:(Sim.Sim_time.ms 700)
      ~until:horizon
  | Lossy ->
    let tog =
      Failure.link_faults_toggle net ~loss:lossy_loss ~duplicate:lossy_duplicate
        ~jitter:lossy_jitter all_nodes
    in
    Failure.toggle_chaos failure
      ~mean_time_to_fault:(Sim.Sim_time.ms 900)
      ~mean_time_to_heal:(Sim.Sim_time.ms 900)
      ~until:horizon [ tog ]);
  let partition = Eventual.Cas_cluster.partition cluster in
  let probe_key = Partition.key_of_int partition 7 in
  let probe = Eventual.Cas_cluster.new_client cluster in
  let max_acked = ref 0 in
  let seq = ref 0 in
  let running = ref true in
  let rec probe_loop () =
    if !running then begin
      incr seq;
      let this = !seq in
      Eventual.Cas_client.put probe ~level:Eventual.Cas_message.Quorum probe_key "c"
        ~value:(string_of_int this) (fun result ->
          if Result.is_ok result then max_acked := Stdlib.max !max_acked this;
          ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 80) probe_loop))
    end
  in
  probe_loop ();
  let outcome =
    Experiment.run ~engine ~key_space
      ~make_driver:
        (Driver.cassandra cluster ~read_level:Eventual.Cas_message.Quorum
           ~write_level:Eventual.Cas_message.Quorum)
      spec
  in
  running := false;
  Sim.Network.heal net;
  Sim.Network.clear_default_faults net;
  List.iter
    (fun s ->
      List.iter
        (fun d -> if s <> d then Sim.Network.clear_link_faults net ~src:s ~dst:d)
        all_nodes)
    all_nodes;
  List.iter (fun n -> Eventual.Cas_cluster.restart_node cluster n) all_nodes;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  let r = ref None in
  Eventual.Cas_client.get probe ~level:Eventual.Cas_message.Quorum probe_key "c"
    (fun x -> r := Some x);
  let rec drive n =
    match !r with
    | Some v -> Some v
    | None when n = 0 -> None
    | None ->
      Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
      drive (n - 1)
  in
  (match drive 3000 with
  | Some (Ok (Some Eventual.Cas_client.{ value = Some v; _ })) ->
    if int_of_string v < !max_acked then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: quorum read saw seq %s < %d acked" v !max_acked)
  | Some (Ok _) ->
    if !max_acked > 0 then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: quorum read saw nothing, %d writes acked" !max_acked)
  | Some (Error _) | None ->
    if !max_acked > 0 then flag "unavailable-after-heal" "final quorum read failed");
  {
    a_outcome = outcome;
    a_exposure = Failure.exposure failure;
    a_net = Some (Sim.Metrics.json_of_net_stats (Sim.Network.stats net));
    a_violations = List.rev !violations;
  }

(* The §1.1 pair: no network to partition (the replication link is modelled
   inside the pair), so network-fault profiles degrade to crash chaos. The
   invariant is the Figure 1 counter itself — no committed write may end up
   on no surviving disk — plus probe visibility after heal. *)
let audit_masterslave ?(track = fun (_ : Sim.Engine.t) -> ()) ~seed ~profile ~spec ~key_space () =
  let engine = Sim.Engine.create ~seed () in
  track engine;
  let pair = Masterslave.Ms_pair.create engine ~disk:Sim.Disk_model.Ssd () in
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let failure = Failure.create engine in
  let target which label =
    Failure.
      {
        label;
        crash = (fun () -> Masterslave.Ms_pair.crash pair which);
        restart = (fun () -> Masterslave.Ms_pair.restart pair which);
        lose_disk = (fun () -> Masterslave.Ms_pair.destroy pair which);
      }
  in
  let targets =
    [ target Masterslave.Ms_pair.Master "ms-master"; target Masterslave.Ms_pair.Slave "ms-slave" ]
  in
  let horizon =
    Sim.Sim_time.add
      (Sim.Sim_time.add (Sim.Engine.now engine) spec.Experiment.warmup)
      spec.Experiment.measure
  in
  (match profile with
  | Steady -> ()
  | Crashes | Partitions | Lossy | Mixed ->
    Failure.chaos failure
      ~mean_time_to_failure:(Sim.Sim_time.sec 3)
      ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
      ~until:horizon targets);
  let probe_key = "probe" in
  let max_acked = ref 0 in
  let seq = ref 0 in
  let running = ref true in
  let rec probe_loop () =
    if !running then begin
      incr seq;
      let this = !seq in
      Masterslave.Ms_pair.put pair ~key:probe_key ~value:(string_of_int this)
        (fun result ->
          if Result.is_ok result then max_acked := Stdlib.max !max_acked this;
          ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 80) probe_loop))
    end
  in
  probe_loop ();
  let outcome =
    Experiment.run ~engine ~key_space ~make_driver:(Driver.masterslave pair) spec
  in
  running := false;
  List.iter
    (fun which -> Masterslave.Ms_pair.restart pair which)
    [ Masterslave.Ms_pair.Master; Masterslave.Ms_pair.Slave ];
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  if Masterslave.Ms_pair.lost_writes pair > 0 then
    flag "lost-acked-write"
      (Printf.sprintf "%d committed writes on no surviving disk"
         (Masterslave.Ms_pair.lost_writes pair));
  let r = ref None in
  Masterslave.Ms_pair.get pair ~key:probe_key (fun x -> r := Some x);
  let rec drive n =
    match !r with
    | Some v -> Some v
    | None when n = 0 -> None
    | None ->
      Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
      drive (n - 1)
  in
  (match drive 500 with
  | Some (Some v) ->
    if int_of_string v < !max_acked then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: read saw seq %s < %d acked" v !max_acked)
  | Some None ->
    if !max_acked > 0 then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: read saw nothing, %d writes acked" !max_acked)
  | None -> if !max_acked > 0 then flag "unavailable-after-heal" "final read stalled");
  {
    a_outcome = outcome;
    a_exposure = Failure.exposure failure;
    a_net = None;
    a_violations = List.rev !violations;
  }
