(* Protocol-level invariants checked under randomized schedules:

   - election safety: never two open leaders for one range;
   - the election rule picks the replica with the max last LSN (§7.2);
   - strong reads are monotonic in version numbers, across failovers;
   - a committed write is durable on a quorum: any majority of the cohort
     can reconstruct it. *)

open Spinnaker
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

let boot ?(seed = 42) () =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster not ready";
  (engine, cluster)

let await engine cell =
  let deadline = Sim.Sim_time.add (Sim.Engine.now engine) (Sim.Sim_time.sec 60) in
  let rec loop () =
    match !cell with
    | Some v -> v
    | None ->
      if Sim.Sim_time.(Sim.Engine.now engine >= deadline) then Alcotest.fail "await timeout"
      else begin
        Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
        loop ()
      end
  in
  loop ()

let open_leaders cluster ~range =
  List.filter
    (fun n ->
      Node.alive (Cluster.node cluster n)
      &&
      match Node.cohort (Cluster.node cluster n) ~range with
      | Some c -> Cohort.is_open c
      | None -> false)
    (Partition.cohort (Cluster.partition cluster) ~range)

(* Election safety sampled through a chaotic schedule of crashes/restarts. *)
let test_at_most_one_open_leader () =
  let engine, cluster = boot ~seed:13 () in
  let failure = Sim.Failure.create engine in
  Sim.Failure.chaos failure
    ~mean_time_to_failure:(Sim.Sim_time.sec 4)
    ~mean_time_to_repair:(Sim.Sim_time.sec 2)
    ~until:(Sim.Sim_time.at_us 30_000_000)
    (List.filteri (fun i _ -> i < 3) (Cluster.failure_targets cluster));
  let violations = ref 0 in
  for _ = 1 to 300 do
    Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
    for range = 0 to Partition.ranges (Cluster.partition cluster) - 1 do
      if List.length (open_leaders cluster ~range) > 1 then incr violations
    done
  done;
  Alcotest.(check int) "never two open leaders for one range" 0 !violations

let test_election_picks_max_lst () =
  (* Hand-build unequal logs: node 1 of range 0's cohort has the longest log
     and must win even though node 0 is the range's primary. *)
  let engine = Sim.Engine.create ~seed:17 () in
  let config = { test_config with Config.nodes = 3 } in
  let cluster = Cluster.create engine config in
  let populate node upto =
    let wal = Node.wal (Cluster.node cluster node) in
    for seq = 1 to upto do
      Storage.Wal.append wal
        (Storage.Log_record.write ~cohort:0
           ~lsn:(Lsn.make ~epoch:1 ~seq)
           ~timestamp:seq
           (Storage.Log_record.Put
              {
                key = Partition.key_of_int (Cluster.partition cluster) seq;
                col = "c";
                value = "v";
                version = seq;
              }))
    done;
    Storage.Wal.append wal (Storage.Log_record.commit_upto ~cohort:0 (Lsn.make ~epoch:1 ~seq:1));
    Storage.Wal.force wal (fun () -> ())
  in
  populate 0 5;
  populate 1 9;
  populate 2 7;
  let zk = Cluster.zk_server cluster in
  let session = Coord.Zk_server.open_session zk in
  ignore (Coord.Zk_server.set_data zk ~session ~path:"/ranges/0/epoch" ~data:"1");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  (* The election decides once a MAJORITY has announced (Figure 7 line 5), so
     the winner is the max-lst node of some majority — never the shortest log
     (n0): any two candidates include one of n1/n2, whose logs dominate n0's. *)
  let leader = Option.get (Cluster.leader_of cluster ~range:0) in
  check_bool
    (Printf.sprintf "winner n%d holds a majority-maximal log" leader)
    true
    (leader = 1 || leader = 2);
  (* And the committed prefix (through 1.1) is never lost, whoever wins. *)
  (match Node.cohort (Cluster.node cluster leader) ~range:0 with
  | Some c ->
    check_bool "committed write 1.1 survives" true
      (Cohort.read_local c (Partition.key_of_int (Cluster.partition cluster) 1, "c") <> None);
    check_bool "leader committed at least the old commit point" true
      (Lsn.compare (Cohort.cmt c) (Lsn.make ~epoch:1 ~seq:1) >= 0)
  | None -> Alcotest.fail "cohort missing")

let test_strong_read_version_monotonic () =
  let engine, cluster = boot ~seed:19 () in
  let writer = Cluster.new_client cluster in
  let reader = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 42 in
  let range = Partition.route (Cluster.partition cluster) key in
  (* Continuous writes; a failover in the middle. *)
  let rec write_loop () =
    Client.put writer key "c" ~value:"x" (fun _ ->
        ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 30) write_loop))
  in
  write_loop ();
  ignore
    (Sim.Engine.schedule engine ~after:(Sim.Sim_time.sec 2) (fun () ->
         match Cluster.leader_of cluster ~range with
         | Some l -> Cluster.crash_node cluster l
         | None -> ()));
  let last_version = ref 0 in
  let regressions = ref 0 in
  for _ = 1 to 100 do
    let r = ref None in
    Client.get reader key "c" (fun x -> r := Some x);
    (match await engine r with
    | Ok Client.{ version; _ } ->
      if version < !last_version then incr regressions;
      last_version := Stdlib.max !last_version version
    | Error _ -> ());
    Sim.Engine.run_for engine (Sim.Sim_time.ms 60)
  done;
  Alcotest.(check int) "strong-read versions never regress" 0 !regressions;
  check_bool "writes actually happened" true (!last_version > 10)

let test_committed_write_on_quorum () =
  let engine, cluster = boot ~seed:23 () in
  let client = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 7 in
  let range = Partition.route (Cluster.partition cluster) key in
  let r = ref None in
  Client.put client key "c" ~value:"durable" (fun x -> r := Some x);
  check_bool "committed" true (Result.is_ok (await engine r));
  (* The write must be forced in the logs of at least a majority (§8.1). *)
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  let holders =
    List.filter
      (fun n ->
        let wal = Node.wal (Cluster.node cluster n) in
        Lsn.compare (Storage.Wal.last_write_lsn wal ~cohort:range) Lsn.zero > 0)
      members
  in
  check_bool
    (Printf.sprintf "forced on %d/3 logs" (List.length holders))
    true
    (List.length holders >= Config.majority)

let prop_random_failover_schedules_preserve_acked_writes =
  QCheck.Test.make ~name:"random failover schedules never lose acked writes" ~count:8
    (QCheck.int_range 1 1000)
    (fun seed ->
      let engine = Sim.Engine.create ~seed () in
      let cluster = Cluster.create engine test_config in
      Cluster.start cluster;
      if not (Cluster.run_until_ready cluster) then false
      else begin
        let client = Cluster.new_client cluster in
        let rng = Sim.Rng.create (seed * 7) in
        let acked : (string, string) Hashtbl.t = Hashtbl.create 32 in
        (* Random crash/restart of one random node mid-run. *)
        let victim = Sim.Rng.int rng test_config.Config.nodes in
        let at = 500_000 + Sim.Rng.int rng 2_000_000 in
        let failure = Sim.Failure.create engine in
        Sim.Failure.crash_for failure ~at:(Sim.Sim_time.at_us at)
          ~down_for:(Sim.Sim_time.ms (500 + Sim.Rng.int rng 2000))
          (Node.failure_target (Cluster.node cluster victim));
        let pending = ref 0 in
        for i = 0 to 19 do
          let key =
            Partition.key_of_int (Cluster.partition cluster)
              (Sim.Rng.int rng test_config.Config.key_space)
          in
          let value = Printf.sprintf "s%d-%d" seed i in
          incr pending;
          Client.put client key "c" ~value (fun result ->
              decr pending;
              if Result.is_ok result then Hashtbl.replace acked key value);
          Sim.Engine.run_for engine (Sim.Sim_time.ms (100 + Sim.Rng.int rng 200))
        done;
        Sim.Engine.run_for engine (Sim.Sim_time.sec 8);
        Hashtbl.fold
          (fun key value ok ->
            ok
            &&
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
            match drive 2000 with
            | Ok Client.{ value = Some got; _ } -> String.equal got value
            | _ -> false)
          acked true
      end)

let suite =
  [
    Alcotest.test_case "election safety under chaos" `Slow test_at_most_one_open_leader;
    Alcotest.test_case "election picks max last-LSN" `Quick test_election_picks_max_lst;
    Alcotest.test_case "strong reads version-monotonic across failover" `Slow
      test_strong_read_version_monotonic;
    Alcotest.test_case "committed write forced on a quorum" `Quick test_committed_write_on_quorum;
    QCheck_alcotest.to_alcotest prop_random_failover_schedules_preserve_acked_writes;
  ]
