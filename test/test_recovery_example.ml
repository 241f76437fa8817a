(* Reproduction of the paper's Appendix B recovery example (Figure 10).

   Cohort = nodes A(0), B(1), C(2) for range 0. Initial durable state S0/S1:

     A: writes 1.1..1.20, last committed 1.20   (the old leader's log)
     B: writes 1.1..1.21, last committed 1.10
     C: writes 1.1..1.22, last committed 1.10

   All three nodes are down (S1). A and B come back: B must win the election
   (max lst = 1.21), re-propose and commit 1.11..1.21, bump the epoch, and
   accept new writes as 2.22..2.30 (S2, S3). When C finally returns, catch-up
   must logically truncate its never-committed write 1.22 — it lands on the
   skipped-LSN list and is never visible (S4). *)

open Spinnaker
module Lsn = Storage.Lsn
module Log_record = Storage.Log_record

let lsn e s = Lsn.make ~epoch:e ~seq:s

let test_config =
  {
    Config.default with
    Config.nodes = 3;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

let key_of cluster seq = Partition.key_of_int (Cluster.partition cluster) seq

(* Append writes 1.[from]..1.[upto] (key = its seq) plus a commit marker. *)
let populate cluster node ~upto ~cmt =
  let wal = Node.wal (Cluster.node cluster node) in
  for seq = 1 to upto do
    Storage.Wal.append wal
      (Log_record.write ~cohort:0 ~lsn:(lsn 1 seq) ~timestamp:seq
         (Log_record.Put
            { key = key_of cluster seq; col = "c"; value = Printf.sprintf "v%d" seq; version = seq }))
  done;
  Storage.Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 cmt));
  Storage.Wal.force wal (fun () -> ())

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

let cohort cluster node =
  match Node.cohort (Cluster.node cluster node) ~range:0 with
  | Some c -> c
  | None -> Alcotest.fail "missing cohort"

(* S0 through S4, checking each state; returns the engine and cluster at S4:
   B leads at cmt 2.30, and C holds the truncated 1.22 below its cmt. *)
let figure_10_to_s4 () =
  let engine = Sim.Engine.create ~seed:11 () in
  let cluster = Cluster.create engine test_config in
  let a = 0 and b = 1 and c = 2 in
  (* S0/S1: durable logs as in the paper; epoch 1 was in use. *)
  populate cluster a ~upto:20 ~cmt:20;
  populate cluster b ~upto:21 ~cmt:10;
  populate cluster c ~upto:22 ~cmt:10;
  let zk = Cluster.zk_server cluster in
  let session = Coord.Zk_server.open_session zk in
  ignore (Coord.Zk_server.set_data zk ~session ~path:"/ranges/0/epoch" ~data:"1");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);

  (* S1 -> S2: A and B come back up; C stays down. *)
  Node.start (Cluster.node cluster a);
  Node.start (Cluster.node cluster b);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);

  (* B is elected: it has the largest lst (1.21 > 1.20). *)
  Alcotest.(check (option int)) "B leads range 0" (Some b) (Cluster.leader_of cluster ~range:0);
  let cb = cohort cluster b and ca = cohort cluster a in
  Alcotest.(check string) "B committed through 1.21" "1.21" (Lsn.to_string (Cohort.cmt cb));
  Alcotest.(check bool) "epoch bumped to 2" true (Cohort.epoch cb = 2);
  (* The writes B re-proposed are now applied on both replicas. *)
  List.iter
    (fun node_cohort ->
      for seq = 11 to 21 do
        match Cohort.read_local node_cohort (key_of cluster seq, "c") with
        | Some cell ->
          Alcotest.(check (option string))
            (Printf.sprintf "seq %d applied" seq)
            (Some (Printf.sprintf "v%d" seq))
            cell.Storage.Row.value
        | None -> Alcotest.failf "write 1.%d lost after takeover" seq
      done)
    [ cb; ca ];

  (* S2 -> S3: the new epoch accepts writes 2.22..2.30. *)
  let client = Cluster.new_client cluster in
  for i = 1 to 9 do
    let r = ref None in
    Client.put client (key_of cluster (100 + i)) "c" ~value:(Printf.sprintf "new%d" i)
      (fun x -> r := Some x);
    Alcotest.(check bool) "new write ok" true (Result.is_ok (await engine r))
  done;
  Alcotest.(check string) "S3: B committed 2.30" "2.30" (Lsn.to_string (Cohort.cmt cb));

  (* S3 -> S4: C comes back and catches up. *)
  Node.restart (Cluster.node cluster c);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  let cc = cohort cluster c in
  Alcotest.(check string) "S4: C committed 2.30" "2.30" (Lsn.to_string (Cohort.cmt cc));
  (* 1.22 was never committed: logically truncated on C. *)
  Alcotest.(check (list string))
    "C skipped exactly 1.22"
    [ "1.22" ]
    (List.map Lsn.to_string (Cohort.skipped_lsns cc));
  (match Cohort.read_local cc (key_of cluster 22, "c") with
  | Some cell ->
    Alcotest.(check (option string))
      "k22 shows 1.22's value nowhere" None
      (if cell.Storage.Row.lsn = lsn 1 22 then cell.Storage.Row.value else None)
  | None -> ());
  (* C sees both the epoch-1 re-proposals and the epoch-2 writes. *)
  for seq = 11 to 21 do
    Alcotest.(check bool)
      (Printf.sprintf "C has 1.%d" seq)
      true
      (Cohort.read_local cc (key_of cluster seq, "c") <> None)
  done;
  for i = 1 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "C has 2.%d" (21 + i))
      true
      (Cohort.read_local cc (key_of cluster (100 + i), "c") <> None)
  done;
  (engine, cluster)

let figure_10 () =
  let engine, cluster = figure_10_to_s4 () in
  let c = 2 in
  (* And a crash/recovery on C must not resurrect 1.22 (the point of the
     skipped-LSN list: local recovery consults it). *)
  Node.crash (Cluster.node cluster c);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Node.restart (Cluster.node cluster c);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  let cc = cohort cluster c in
  (match Cohort.read_local cc (key_of cluster 22, "c") with
  | Some cell ->
    Alcotest.(check bool) "1.22 stays dead after local recovery" false
      (Lsn.equal cell.Storage.Row.lsn (lsn 1 22))
  | None -> ())

(* A replica that truncated a record logically must not ship it in a later
   catch-up. From S4, A loses its disk and is caught up from zero by C, the
   only replica still holding 1.22 (on its skipped list, below its cmt 2.30).
   Then A leads with B: 1.22 never committed, so key 22 must read as never
   written, on A and through a strong read. *)
let truncated_record_not_shipped () =
  let engine, cluster = figure_10_to_s4 () in
  let a = 0 and b = 1 and c = 2 in
  Node.crash (Cluster.node cluster a);
  Node.crash (Cluster.node cluster b);
  Node.lose_disk (Cluster.node cluster a);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Node.restart (Cluster.node cluster a);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  Alcotest.(check (option int)) "C leads range 0" (Some c) (Cluster.leader_of cluster ~range:0);
  let ca = cohort cluster a in
  Alcotest.(check string) "A caught up to 2.30" "2.30" (Lsn.to_string (Cohort.cmt ca));
  Alcotest.(check (option string)) "A never received 1.22" None
    (Option.bind (Cohort.read_local ca (key_of cluster 22, "c")) (fun cell ->
         cell.Storage.Row.value));
  Node.crash (Cluster.node cluster c);
  Node.restart (Cluster.node cluster b);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  Alcotest.(check (option int)) "A leads range 0" (Some a) (Cluster.leader_of cluster ~range:0);
  let client = Cluster.new_client cluster in
  let r = ref None in
  Client.get client (key_of cluster 22) "c" (fun x -> r := Some x);
  match await engine r with
  | Ok { Client.value; _ } ->
    Alcotest.(check (option string)) "strong get of key 22" None value
  | Error _ -> Alcotest.fail "strong get of key 22 failed"

(* Append one write [lsn] (key = its seq, value [value]) to [node]'s log. *)
let append_write cluster node lsn ~value =
  let wal = Node.wal (Cluster.node cluster node) in
  Storage.Wal.append wal
    (Log_record.write ~cohort:0 ~lsn ~timestamp:lsn.Lsn.seq
       (Log_record.Put
          { key = key_of cluster lsn.Lsn.seq; col = "c"; value; version = lsn.Lsn.seq }));
  Storage.Wal.force wal (fun () -> ())

(* Run the engine one event at a time until [cond] holds. *)
let step_until engine cond =
  let deadline = Sim.Sim_time.add (Sim.Engine.now engine) (Sim.Sim_time.sec 60) in
  while not (cond ()) do
    if Sim.Sim_time.(Sim.Engine.now engine >= deadline) || not (Sim.Engine.step engine) then
      Alcotest.fail "step_until timeout"
  done

(* A re-proposed record settles its seq on the follower that accepts it.
   Cohort = L(0), F(1), R(2) for range 0, epoch 2 last in use:

     L: 1.1..1.11, cmt 1.10   (1.11 was never committed in epoch 1)
     F: 1.1..1.10, cmt 1.10
     R: 1.1..1.10, 2.11, cmt 1.10   (R led epoch 2 without L, reusing seq 11)

   L and F elect L (lst 1.11), and L is cut off from F at once. R, started
   next, catches up to 1.10 and accepts L's re-proposed 1.11 beside its own
   2.11; L commits 1.11 on R's ack. L and R crash before L's commit message
   reaches R. R restarts with F: it must claim lst 1.11, not the dead 2.11,
   so the next takeover commits 1.11 and the committed write survives. *)
let reproposal_settles_seq () =
  let engine = Sim.Engine.create ~seed:11 () in
  let cluster = Cluster.create engine test_config in
  let l = 0 and f = 1 and r = 2 in
  populate cluster l ~upto:10 ~cmt:10;
  populate cluster f ~upto:10 ~cmt:10;
  populate cluster r ~upto:10 ~cmt:10;
  append_write cluster l (lsn 1 11) ~value:"committed";
  append_write cluster r (lsn 2 11) ~value:"deposed";
  let zk = Cluster.zk_server cluster in
  let session = Coord.Zk_server.open_session zk in
  ignore (Coord.Zk_server.set_data zk ~session ~path:"/ranges/0/epoch" ~data:"2");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  Node.start (Cluster.node cluster l);
  Node.start (Cluster.node cluster f);
  step_until engine (fun () ->
      match Node.cohort (Cluster.node cluster l) ~range:0 with
      | Some c -> Cohort.role c = Cohort.Leader
      | None -> false);
  Sim.Network.partition_pair (Cluster.net cluster) l f;
  let cl = cohort cluster l in
  Alcotest.(check string) "L has not committed 1.11 yet" "1.10" (Lsn.to_string (Cohort.cmt cl));
  Node.start (Cluster.node cluster r);
  step_until engine (fun () -> Lsn.equal (Cohort.cmt cl) (lsn 1 11));
  Alcotest.(check string) "R has not applied 1.11" "1.10"
    (Lsn.to_string (Cohort.cmt (cohort cluster r)));
  Node.crash (Cluster.node cluster l);
  Node.crash (Cluster.node cluster r);
  Sim.Network.heal_pair (Cluster.net cluster) l f;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  Node.restart (Cluster.node cluster r);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  Alcotest.(check (option int)) "R leads range 0" (Some r) (Cluster.leader_of cluster ~range:0);
  List.iter
    (fun (name, node) ->
      match Cohort.read_local (cohort cluster node) (key_of cluster 11, "c") with
      | Some cell ->
        Alcotest.(check (option string))
          (name ^ " holds the committed 1.11") (Some "committed") cell.Storage.Row.value
      | None -> Alcotest.failf "%s lost the committed 1.11" name)
    [ ("R", r); ("F", f) ];
  Alcotest.(check bool) "R truncated 2.11" true
    (List.exists (Lsn.equal (lsn 2 11)) (Cohort.skipped_lsns (cohort cluster r)))

let suite =
  [
    Alcotest.test_case "Figure 10 walkthrough (S0-S4)" `Slow figure_10;
    Alcotest.test_case "a re-proposed record settles its seq on the follower" `Quick
      reproposal_settles_seq;
    Alcotest.test_case "catch-up does not ship a logically truncated record" `Slow
      truncated_record_not_shipped;
  ]
