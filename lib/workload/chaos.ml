(* The chaos harness behind the nemesis tests, the shrinker fixture, and the
   cross-backend audit battery. One seeded run = keyed serial writers plus
   concurrent strong readers driven through a fault profile, then heal,
   quiesce, and check the §1.1 claims; instead of asserting, the run returns
   a [verdict] whose violation list the caller (a test, the ddmin shrinker's
   oracle, or `bench audit`) interprets. Passing [?schedule] replays an
   explicit injection log — seed-free chaos — against a pre-registered
   universe of crash targets and fault toggles. The probes, fault
   generators, heal and checks below are the only copies: every gauntlet,
   the scale-out battery's included, is assembled from them. *)

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

let default_config =
  {
    Config.default with
    Config.nodes = 5;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

(* ------------------------------------------------------------------ *)
(* Fault generators: one per fault kind, each holding its parameters    *)

let crash_chaos failure ~until targets =
  Failure.chaos failure
    ~mean_time_to_failure:(Sim.Sim_time.sec 3)
    ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
    ~until targets

let partition_chaos failure net ~nodes ~until =
  Failure.random_pair_partition_chaos failure net ~nodes
    ~mean_time_to_fault:(Sim.Sim_time.ms 1500)
    ~mean_time_to_heal:(Sim.Sim_time.ms 700)
    ~until

(* The toggle's label carries the rate, so the universe a replay registers
   names the same toggle as the run that recorded it. *)
let lossy_toggle ?(rate = 0.08) net nodes =
  Failure.link_faults_toggle net ~loss:rate ~duplicate:rate
    ~jitter:(Sim.Distribution.Uniform (0.0, 400.0))
    nodes

let lossy_chaos ?rate failure net ~nodes ~until =
  Failure.toggle_chaos failure
    ~mean_time_to_fault:(Sim.Sim_time.ms 900)
    ~mean_time_to_heal:(Sim.Sim_time.ms 900)
    ~until
    [ lossy_toggle ?rate net nodes ]

let zk_cut cluster n =
  Failure.toggle
    ~label:(Printf.sprintf "zk-cut-n%d" n)
    ~engage:(fun () -> Cluster.set_zk_reachable cluster n false)
    ~disengage:(fun () -> Cluster.set_zk_reachable cluster n true)

let first_two targets = List.filteri (fun i _ -> i < 2) targets

(* Register every subject a recorded schedule could name, whether or not
   this run's own generators would have drawn it: crash targets for all
   nodes, symmetric and one-way partition toggles for all pairs, the lossy
   episode, and per-node coordination-service cuts. *)
let register_universe failure cluster =
  let net = Cluster.net cluster in
  let all = List.init (Array.length (Cluster.nodes cluster)) Fun.id in
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
  Failure.register_toggle failure (lossy_toggle net all);
  List.iter (fun n -> Failure.register_toggle failure (zk_cut cluster n)) all

(* Seed-driven gauntlet for one profile. [Mixed] composes everything and
   adds coordination-service cuts and a hazard crash process on a third
   node. *)
let unleash failure cluster ~profile ~until =
  let net = Cluster.net cluster in
  let nodes = Array.length (Cluster.nodes cluster) in
  let all_nodes = List.init nodes Fun.id in
  let targets = Cluster.failure_targets cluster in
  match profile with
  | Steady -> ()
  | Crashes -> crash_chaos failure ~until (first_two targets)
  | Partitions -> partition_chaos failure net ~nodes:all_nodes ~until
  | Lossy -> lossy_chaos failure net ~nodes:all_nodes ~until
  | Mixed ->
    crash_chaos failure ~until (first_two targets);
    partition_chaos failure net ~nodes:all_nodes ~until;
    lossy_chaos failure net ~nodes:all_nodes ~until;
    Failure.toggle_chaos failure
      ~mean_time_to_fault:(Sim.Sim_time.sec 4)
      ~mean_time_to_heal:(Sim.Sim_time.sec 1)
      ~until
      [ zk_cut cluster (nodes - 1) ];
    if nodes > 2 then
      Failure.hazard_crash_chaos failure
        ~period:(Sim.Sim_time.ms 250)
        ~p_per_tick:0.02 ~max_concurrent:1
        ~mean_time_to_repair:(Sim.Sim_time.ms 1500)
        ~until
        [ List.nth targets 2 ]

let heal_network net nodes =
  Sim.Network.heal net;
  List.iter
    (fun s ->
      List.iter (fun d -> if s <> d then Sim.Network.clear_link_faults net ~src:s ~dst:d) nodes)
    nodes

let heal cluster =
  let all_nodes = List.init (Array.length (Cluster.nodes cluster)) Fun.id in
  heal_network (Cluster.net cluster) all_nodes;
  List.iter (fun n -> Cluster.set_zk_reachable cluster n true) all_nodes;
  List.iter (fun n -> Cluster.restart_node cluster n) all_nodes

let drive engine ?(every = Sim.Sim_time.ms 10) ~polls poll =
  let rec go n =
    match poll () with
    | Some _ as v -> v
    | None when n = 0 -> None
    | None ->
      Sim.Engine.run_for engine every;
      go (n - 1)
  in
  go polls

(* ------------------------------------------------------------------ *)
(* Probes: a serial writer and a strong reader per key                 *)

type outcome_count = { mutable acked : int; mutable indeterminate : int }

type probes = {
  engine : Sim.Engine.t;
  history : History.t;
  keys : string list;
  outcomes : (string, outcome_count) Hashtbl.t;
  mutable probing : bool;
}

(* Serial writer per key, values = sequence numbers: the final version
   counter must land in [acked, acked + indeterminate]. *)
let spawn_writer p client key ~period =
  let o = Hashtbl.find p.outcomes key in
  let seq = ref 0 in
  let rec write_loop () =
    if p.probing then begin
      incr seq;
      let this = !seq in
      let invoked = Sim.Engine.now p.engine in
      Client.put client key "c" ~value:(string_of_int this) (fun result ->
          if Result.is_ok result then o.acked <- o.acked + 1
          else o.indeterminate <- o.indeterminate + 1;
          History.record_write p.history ~key ~seq:this ~invoked
            ~completed:(Sim.Engine.now p.engine)
            ~acked:(Result.is_ok result);
          ignore (Sim.Engine.schedule p.engine ~after:period write_loop))
    end
  in
  write_loop ()

let spawn_reader p client key ~period =
  let rec read_loop () =
    if p.probing then begin
      let invoked = Sim.Engine.now p.engine in
      Client.get client key "c" (fun result ->
          (match result with
          | Ok Client.{ value; _ } ->
            History.record_read p.history ~key
              ~observed:(Option.map int_of_string value)
              ~invoked
              ~completed:(Sim.Engine.now p.engine)
          | Error _ -> ());
          ignore (Sim.Engine.schedule p.engine ~after:period read_loop))
    end
  in
  read_loop ()

let start_probes ?writer cluster ~keys ~write_period ~read_period =
  let writer = Option.value writer ~default:(fun _ -> Cluster.new_client cluster) in
  let p =
    {
      engine = Cluster.engine cluster;
      history = History.create ();
      keys;
      outcomes = Hashtbl.create 8;
      probing = true;
    }
  in
  List.iter (fun key -> Hashtbl.replace p.outcomes key { acked = 0; indeterminate = 0 }) keys;
  List.iteri (fun i key -> spawn_writer p (writer i) key ~period:write_period) keys;
  List.iteri
    (fun i key ->
      if i < 3 then spawn_reader p (Cluster.new_client cluster) key ~period:read_period)
    keys;
  p

let stop_probes p = p.probing <- false
let history p = p.history
let acked p = Hashtbl.fold (fun _ o a -> a + o.acked) p.outcomes 0
let indeterminate p = Hashtbl.fold (fun _ o a -> a + o.indeterminate) p.outcomes 0

(* ------------------------------------------------------------------ *)
(* The check set                                                       *)

(* Checks on the cluster itself, over every range that exists now (a split
   may have skipped a range id). Exactly-once at the log level: in the
   leader's committed, non-truncated prefix no (client, request id) origin
   may appear under two LSNs. After heal + quiesce the intent sweep must
   have converged every replica: a write intent with no live transaction is
   an orphan that would block snapshot readers forever. Every range keeps
   its replication factor, and every message sent is delivered, dropped or
   still in flight. *)
let check_cluster cluster flag =
  let partition = Cluster.partition cluster in
  let ranges = Partition.range_ids partition in
  List.iter
    (fun range ->
      match Cluster.leader_of cluster ~range with
      | None ->
        flag "unavailable-after-heal" (Printf.sprintf "range %d has no open leader after heal" range)
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
               ~above:Storage.Lsn.zero ~upto:(Cohort.cmt c))))
    ranges;
  Array.iteri
    (fun n node ->
      List.iter
        (fun range ->
          match Node.cohort node ~range with
          | None -> ()
          | Some c ->
            List.iter
              (fun (txn, _, coords) ->
                flag "orphaned-intent"
                  (Printf.sprintf "node %d range %d: txn %s still holds %d intents after quiesce"
                     n range txn (List.length coords)))
              (Storage.Store.live_intents (Cohort.store c)))
        ranges)
    (Cluster.nodes cluster);
  List.iter
    (fun range ->
      let members = List.length (Partition.cohort partition ~range) in
      if members <> Config.replication then
        flag "layout-incoherence"
          (Printf.sprintf "range %d has %d members, not %d" range members Config.replication))
    ranges;
  let s = Sim.Network.stats (Cluster.net cluster) in
  let dropped = s.net_dropped_down + s.net_dropped_partitioned + s.net_dropped_lost in
  if s.net_sent + s.net_duplicated <> s.net_delivered + dropped + s.net_in_flight then
    flag "net-accounting"
      (Printf.sprintf "%d sent + %d duplicated, but %d delivered + %d dropped + %d in flight"
         s.net_sent s.net_duplicated s.net_delivered dropped s.net_in_flight)

(* Final strong reads close the history and pin each key's version; then
   the cluster checks and per-key linearizability. *)
let check cluster p flag =
  let final_client = Cluster.new_client cluster in
  List.iter
    (fun key ->
      let invoked = Sim.Engine.now p.engine in
      let r = ref None in
      Client.get final_client key "c" (fun x -> r := Some x);
      match drive p.engine ~polls:3000 (fun () -> !r) with
      | Some (Ok Client.{ value; version }) ->
        History.record_read p.history ~key
          ~observed:(Option.map int_of_string value)
          ~invoked
          ~completed:(Sim.Engine.now p.engine);
        let o = Hashtbl.find p.outcomes key in
        if version < o.acked then
          flag "lost-acked-write"
            (Printf.sprintf "key %s: version %d < %d acked" key version o.acked);
        if version > o.acked + o.indeterminate then
          flag "double-apply"
            (Printf.sprintf "key %s: version %d > %d acked + %d indeterminate" key version
               o.acked o.indeterminate)
      | _ -> flag "unavailable-after-heal" (Printf.sprintf "final read of %s failed" key))
    p.keys;
  check_cluster cluster flag;
  List.iter
    (fun v -> flag "linearizability" (Format.asprintf "%a" History.pp_violation v))
    (History.check p.history)

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
  net : Sim.Metrics.net_stats;
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

(* What a gauntlet's body reports back for its verdict. *)
type tally = { fingerprint : string; acked : int; indeterminate : int; n_writes : int; n_reads : int }

(* One seeded gauntlet: boot the cluster, arm a nemesis over the replayable
   fault universe, let [body] drive and check the run, and build the
   verdict. A failing run carries its flight-recorder pins out with it: the
   slowest requests' full causal traces, dumpable next to the schedule
   artifact without re-running anything. *)
let gauntlet ?(track = fun (_ : Sim.Engine.t) -> ()) ?(planted_hole_ack_bug = false) ~config
    ~profile ~seed body =
  let engine = Sim.Engine.create ~seed () in
  track engine;
  let cluster = Cluster.create ~planted_hole_ack_bug engine config in
  Cluster.start cluster;
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let failure, (t : tally) =
    if Cluster.run_until_ready cluster then begin
      let failure = Failure.create engine in
      register_universe failure cluster;
      (* Fault exposure doubles as nemesis_* gauges in the cluster registry,
         sampled alongside the storage gauges. *)
      Failure.attach_metrics failure (Cluster.metrics cluster);
      (Some failure, body cluster failure flag)
    end
    else begin
      flag "setup" "cluster never became ready";
      (None, { fingerprint = ""; acked = 0; indeterminate = 0; n_writes = 0; n_reads = 0 })
    end
  in
  let flight = Cluster.flight cluster in
  {
    seed;
    profile;
    planted_bug = planted_hole_ack_bug;
    schedule = Option.fold ~none:[] ~some:Failure.injections failure;
    exposure = Option.fold ~none:[] ~some:Failure.exposure failure;
    violations = List.rev !violations;
    fingerprint = t.fingerprint;
    acked = t.acked;
    indeterminate = t.indeterminate;
    n_writes = t.n_writes;
    n_reads = t.n_reads;
    outliers =
      (if !violations <> [] && Sim.Trace.Flight.pinned flight > 0 then
         Some (Sim.Trace_export.outliers_to_json flight)
       else None);
    net = Sim.Network.stats (Cluster.net cluster);
  }

(* ------------------------------------------------------------------ *)
(* The Spinnaker gauntlet run                                          *)

(* The shared-client variant's keys: enough serial writers that a client's
   retry can trail its original by hundreds of ids. *)
let shared_keys = 1024

let run_spinnaker ?track ?(config = default_config) ?(profile = Mixed) ?schedule
    ?planted_hole_ack_bug ?shared_clients ?(chaos_for = Sim.Sim_time.sec 10)
    ?(quiesce_for = Sim.Sim_time.sec 10) ~seed () =
  gauntlet ?track ?planted_hole_ack_bug ~config ~profile ~seed (fun cluster failure flag ->
      let engine = Cluster.engine cluster in
      let partition = Cluster.partition cluster in
      (* One client per key keeps each client's id stream slow. The shared
         variant runs [shared_keys] serial writers through a few clients, so
         each client issues hundreds of ids a second across every range. *)
      let keys, writer, period =
        match shared_clients with
        | None ->
          (List.map (Partition.key_of_int partition) [ 3; 47; 91 ], None, Sim.Sim_time.ms 60)
        | Some n ->
          let clients = Array.init n (fun _ -> Cluster.new_client cluster) in
          let stride = Partition.key_space partition / shared_keys in
          ( List.init shared_keys (fun i -> Partition.key_of_int partition (i * stride)),
            Some (fun i -> clients.(i mod n)),
            Sim.Sim_time.ms 500 )
      in
      let p =
        start_probes ?writer cluster ~keys ~write_period:period
          ~read_period:(Sim.Sim_time.ms 45)
      in
      let until = Sim.Sim_time.add (Sim.Engine.now engine) chaos_for in
      (match schedule with
      | Some s -> Failure.apply failure s
      | None -> unleash failure cluster ~profile ~until);
      Sim.Engine.run_for engine (Sim.Sim_time.span_add chaos_for (Sim.Sim_time.sec 1));
      stop_probes p;
      heal cluster;
      Sim.Engine.run_for engine quiesce_for;
      check cluster p flag;
      {
        fingerprint = History.fingerprint p.history;
        acked = acked p;
        indeterminate = indeterminate p;
        n_writes = History.writes p.history;
        n_reads = History.reads p.history;
      })

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

let run_txn_bank ?(config = default_config) ?schedule
    ?(chaos_for = Sim.Sim_time.sec 8) ?(quiesce_for = Sim.Sim_time.sec 12) ~seed () =
  gauntlet ~config ~profile:Crashes ~seed (fun cluster failure flag ->
      let engine = Cluster.engine cluster in
      let in_flight = ref 0 in
      let until = Sim.Sim_time.add (Sim.Engine.now engine) chaos_for in
      (match schedule with
      | Some s -> Failure.apply failure s
      | None -> unleash_txn failure cluster ~in_flight ~until);
      let bank =
        Experiment.run_bank ~engine ~cluster ~accounts:12 ~threads:4
          ~duration:chaos_for ~in_flight
          ~heal:(fun () -> heal cluster)
          ~quiesce:quiesce_for ()
      in
      List.iter (fun (invariant, detail) -> flag invariant detail)
        bank.Experiment.bank_violations;
      check_cluster cluster flag;
      {
        fingerprint = History.fingerprint bank.Experiment.bank_history;
        acked = bank.Experiment.transfers_committed;
        indeterminate = bank.Experiment.transfers_unresolved;
        n_writes = History.txns bank.Experiment.bank_history;
        n_reads = bank.Experiment.bank_audits;
      })

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

let horizon engine (spec : Experiment.spec) =
  Sim.Sim_time.add (Sim.Sim_time.add (Sim.Engine.now engine) spec.warmup) spec.measure

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
  let p =
    start_probes cluster
      ~keys:[ Partition.key_of_int (Cluster.partition cluster) 7 ]
      ~write_period:(Sim.Sim_time.ms 80) ~read_period:(Sim.Sim_time.ms 65)
  in
  unleash failure cluster ~profile ~until:(horizon engine spec);
  let outcome =
    Experiment.run ~engine ~key_space
      ~make_driver:(Driver.spinnaker cluster ~consistent_reads:true)
      spec
  in
  stop_probes p;
  heal cluster;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 8);
  check cluster p flag;
  {
    a_outcome = outcome;
    a_exposure = Failure.exposure failure;
    a_net = Some (Sim.Metrics.json_of_net_stats (Sim.Network.stats (Cluster.net cluster)));
    a_violations = List.rev !violations;
  }

(* The eventual and master-slave audits' probe: a serial writer of sequence
   numbers that remembers the highest acknowledged one. [put value k] writes
   and calls [k] with whether the write was acknowledged. *)
let spawn_seq_prober engine ~put =
  let max_acked = ref 0 and seq = ref 0 and running = ref true in
  let rec probe_loop () =
    if !running then begin
      incr seq;
      let this = !seq in
      put (string_of_int this) (fun ok ->
          if ok then max_acked := Stdlib.max !max_acked this;
          ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 80) probe_loop))
    end
  in
  probe_loop ();
  (max_acked, running)

(* The healed read of the probe key: [None] if it never answered, else the
   value it saw. It must see at least the highest acknowledged write. *)
let check_probe_read flag ~max_acked = function
  | Some (Some v) ->
    if int_of_string v < max_acked then
      flag "lost-acked-write" (Printf.sprintf "probe key: read saw seq %s < %d acked" v max_acked)
  | Some None ->
    if max_acked > 0 then
      flag "lost-acked-write"
        (Printf.sprintf "probe key: read saw nothing, %d writes acked" max_acked)
  | None -> if max_acked > 0 then flag "unavailable-after-heal" "final probe read failed"

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
  let all_nodes = List.init config.Config.nodes Fun.id in
  let until = horizon engine spec in
  (match profile with
  | Steady -> ()
  | Crashes | Mixed ->
    crash_chaos failure ~until (first_two (Eventual.Cas_cluster.failure_targets cluster))
  | Partitions -> partition_chaos failure net ~nodes:all_nodes ~until
  | Lossy -> lossy_chaos failure net ~nodes:all_nodes ~until);
  let probe_key = Partition.key_of_int (Eventual.Cas_cluster.partition cluster) 7 in
  let probe = Eventual.Cas_cluster.new_client cluster in
  let max_acked, running =
    spawn_seq_prober engine ~put:(fun value k ->
        Eventual.Cas_client.put probe ~level:Eventual.Cas_message.Quorum probe_key "c" ~value
          (fun result -> k (Result.is_ok result)))
  in
  let outcome =
    Experiment.run ~engine ~key_space
      ~make_driver:
        (Driver.cassandra cluster ~read_level:Eventual.Cas_message.Quorum
           ~write_level:Eventual.Cas_message.Quorum)
      spec
  in
  running := false;
  heal_network net all_nodes;
  List.iter (fun n -> Eventual.Cas_cluster.restart_node cluster n) all_nodes;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  let r = ref None in
  Eventual.Cas_client.get probe ~level:Eventual.Cas_message.Quorum probe_key "c"
    (fun x -> r := Some x);
  check_probe_read flag ~max_acked:!max_acked
    (match drive engine ~polls:3000 (fun () -> !r) with
    | Some (Ok (Some Eventual.Cas_client.{ value = Some v; _ })) -> Some (Some v)
    | Some (Ok _) -> Some None
    | Some (Error _) | None -> None);
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
  if profile <> Steady then
    crash_chaos failure ~until:(horizon engine spec)
      [ target Masterslave.Ms_pair.Master "ms-master"; target Masterslave.Ms_pair.Slave "ms-slave" ];
  let probe_key = "probe" in
  let max_acked, running =
    spawn_seq_prober engine ~put:(fun value k ->
        Masterslave.Ms_pair.put pair ~key:probe_key ~value (fun result -> k (Result.is_ok result)))
  in
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
  check_probe_read flag ~max_acked:!max_acked (drive engine ~polls:500 (fun () -> !r));
  {
    a_outcome = outcome;
    a_exposure = Failure.exposure failure;
    a_net = None;
    a_violations = List.rev !violations;
  }
