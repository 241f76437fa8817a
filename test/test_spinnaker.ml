(* Integration tests for the Spinnaker core: replication, consistency
   levels, conditional operations, failover, recovery, and availability
   invariants. Uses small clusters on an SSD log so forces are fast. *)

open Spinnaker

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_config =
  {
    Config.default with
    Config.nodes = 5;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

let boot ?(config = test_config) ?(seed = 42) () =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster not ready";
  (engine, cluster)

(* Drive the engine until an async result lands (or fail). *)
let await engine ?(timeout = Sim.Sim_time.sec 60) cell =
  let deadline = Sim.Sim_time.add (Sim.Engine.now engine) timeout in
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

let put_sync engine client key col value =
  let r = ref None in
  Client.put client key col ~value (fun x -> r := Some x);
  await engine r

let get_sync ?(consistent = true) engine client key col =
  let r = ref None in
  Client.get client ~consistent key col (fun x -> r := Some x);
  await engine r

let cond_put_sync engine client key col value expected =
  let r = ref None in
  Client.conditional_put client key col ~value ~expected (fun x -> r := Some x);
  await engine r

let value_of = function
  | Ok Client.{ value; _ } -> value
  | Error e -> Alcotest.failf "request failed: %a" Client.pp_error e

let version_of = function
  | Ok Client.{ version; _ } -> version
  | Error e -> Alcotest.failf "request failed: %a" Client.pp_error e

let key_for cluster i = Partition.key_of_int (Cluster.partition cluster) i

(* --- basic API -------------------------------------------------------------- *)

let test_put_get_roundtrip () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 1234 in
  check_bool "put ok" true (Result.is_ok (put_sync engine client key "c" "hello"));
  Alcotest.(check (option string)) "get" (Some "hello") (value_of (get_sync engine client key "c"))

let test_get_missing_key () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  Alcotest.(check (option string))
    "missing" None
    (value_of (get_sync engine client (key_for cluster 777) "nope"))

let test_versions_increment () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 5 in
  ignore (put_sync engine client key "c" "v1");
  check_int "v1" 1 (version_of (get_sync engine client key "c"));
  ignore (put_sync engine client key "c" "v2");
  check_int "v2" 2 (version_of (get_sync engine client key "c"))

let test_delete () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 6 in
  ignore (put_sync engine client key "c" "x");
  let r = ref None in
  Client.delete client key "c" (fun x -> r := Some x);
  check_bool "delete ok" true (Result.is_ok (await engine r));
  Alcotest.(check (option string)) "gone" None (value_of (get_sync engine client key "c"));
  (* The tombstone still carries a version for optimistic concurrency. *)
  check_int "tombstone version" 2 (version_of (get_sync engine client key "c"))

let test_conditional_put () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 7 in
  ignore (put_sync engine client key "c" "base");
  (* Correct expected version succeeds. *)
  check_bool "match" true (Result.is_ok (cond_put_sync engine client key "c" "next" 1));
  (* Stale expected version fails with the current version. *)
  (match cond_put_sync engine client key "c" "loser" 1 with
  | Error (Client.Version_mismatch { current }) -> check_int "current" 2 current
  | _ -> Alcotest.fail "expected mismatch");
  Alcotest.(check (option string)) "winner kept" (Some "next")
    (value_of (get_sync engine client key "c"))

let test_conditional_increment_loop () =
  (* The paper's counter idiom (§3): read version, conditional-put, retry. *)
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 8 in
  ignore (put_sync engine client key "n" "0");
  for _ = 1 to 5 do
    let v = get_sync engine client key "n" in
    let current = version_of v in
    let n = int_of_string (Option.get (value_of v)) in
    check_bool "increment accepted" true
      (Result.is_ok (cond_put_sync engine client key "n" (string_of_int (n + 1)) current))
  done;
  Alcotest.(check (option string)) "count" (Some "5") (value_of (get_sync engine client key "n"))

let test_conditional_racers_one_wins () =
  let engine, cluster = boot () in
  let a = Cluster.new_client cluster and b = Cluster.new_client cluster in
  let key = key_for cluster 9 in
  ignore (put_sync engine a key "c" "base");
  (* Two clients race a conditional put against the same version. *)
  let ra = ref None and rb = ref None in
  Client.conditional_put a key "c" ~value:"A" ~expected:1 (fun x -> ra := Some x);
  Client.conditional_put b key "c" ~value:"B" ~expected:1 (fun x -> rb := Some x);
  let xa = await engine ra and xb = await engine rb in
  let wins = List.length (List.filter Result.is_ok [ xa; xb ]) in
  check_int "exactly one winner" 1 wins

let test_multi_column_put_and_get () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 10 in
  let r = ref None in
  Client.multi_put client key [ ("a", "1"); ("b", "2"); ("c", "3") ] (fun x -> r := Some x);
  check_bool "multi_put ok" true (Result.is_ok (await engine r));
  let g = ref None in
  Client.multi_get client key [ "a"; "b"; "c" ] (fun x -> g := Some x);
  (match await engine g with
  | Ok cols ->
    Alcotest.(check (list (pair string (option string))))
      "all columns"
      [ ("a", Some "1"); ("b", Some "2"); ("c", Some "3") ]
      (List.map (fun (c, Client.{ value; _ }) -> (c, value)) cols)
  | Error e -> Alcotest.failf "multi_get: %a" Client.pp_error e);
  (* One column still comes back under its own name. *)
  let g1 = ref None in
  Client.multi_get client key [ "b" ] (fun x -> g1 := Some x);
  match await engine g1 with
  | Ok cols ->
    Alcotest.(check (list (pair string (option string))))
      "one column, named" [ ("b", Some "2") ]
      (List.map (fun (c, Client.{ value; _ }) -> (c, value)) cols)
  | Error e -> Alcotest.failf "one-column multi_get: %a" Client.pp_error e

let test_multi_conditional_put () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 11 in
  let r = ref None in
  Client.multi_put client key [ ("a", "1"); ("b", "2") ] (fun x -> r := Some x);
  ignore (await engine r);
  let r2 = ref None in
  Client.multi_conditional_put client key [ ("a", "10", 1); ("b", "20", 1) ] (fun x ->
      r2 := Some x);
  check_bool "matching versions succeed" true (Result.is_ok (await engine r2));
  let r3 = ref None in
  Client.multi_conditional_put client key [ ("a", "x", 1); ("b", "y", 2) ] (fun x ->
      r3 := Some x);
  check_bool "any stale version fails" true (Result.is_error (await engine r3));
  Alcotest.(check (option string)) "a kept" (Some "10") (value_of (get_sync engine client key "a"))

(* Every client write is one log record: a three-column put and a
   three-column conditional put each leave all their cells on one LSN and
   add one durable [Write] record to the leader's log. *)
let test_multi_column_write_is_one_record () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 13 in
  let range = Partition.route (Cluster.partition cluster) key in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let wal = Node.wal (Cluster.node cluster leader) in
  let cohort = Option.get (Node.cohort (Cluster.node cluster leader) ~range) in
  let check_one_record name write =
    let before = Storage.Wal.durable_writes wal ~cohort:range in
    let r = ref None in
    write (fun x -> r := Some x);
    check_bool (name ^ " ok") true (Result.is_ok (await engine r));
    check_int (name ^ ": one durable record") (before + 1)
      (Storage.Wal.durable_writes wal ~cohort:range);
    let lsns =
      List.map
        (fun col -> (Option.get (Cohort.read_local cohort (key, col))).Storage.Row.lsn)
        [ "a"; "b"; "c" ]
    in
    check_int (name ^ ": one LSN") 1 (List.length (List.sort_uniq Storage.Lsn.compare lsns))
  in
  check_one_record "multi_put"
    (Client.multi_put client key [ ("a", "1"); ("b", "2"); ("c", "3") ]);
  check_one_record "multi_conditional_put"
    (Client.multi_conditional_put client key [ ("a", "10", 1); ("b", "20", 1); ("c", "30", 1) ])

(* --- multi-operation transactions (§8.2 extension) ----------------------------- *)

let test_transaction_commits_atomically () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  (* Keys 1,2,3 all fall in range 0. *)
  let key i = key_for cluster i in
  let r = ref None in
  Client.transact_put client
    [ (key 1, "bal", "100"); (key 2, "bal", "200"); (key 3, "bal", "300") ]
    (fun x -> r := Some x);
  check_bool "txn ok" true (Result.is_ok (await engine r));
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option string))
        (Printf.sprintf "row %d" i)
        (Some v)
        (value_of (get_sync engine client (key i) "bal")))
    [ (1, "100"); (2, "200"); (3, "300") ]

let test_transaction_cross_range_rejected () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  (* Key 1 is in range 0; a key from the far end of the space is not. *)
  let far = Config.default.Config.key_space - 1 in
  let r = ref None in
  Client.transact_put client
    [ (key_for cluster 1, "c", "x"); (key_for cluster far, "c", "y") ]
    (fun x -> r := Some x);
  (match await engine r with
  | Error Client.Cross_range -> ()
  | Ok () -> Alcotest.fail "cross-range transaction accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Client.pp_error e);
  (* And nothing was written. *)
  Alcotest.(check (option string)) "no partial write" None
    (value_of (get_sync engine client (key_for cluster 1) "c"))

let test_transaction_versions_assigned () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  ignore (put_sync engine client (key_for cluster 4) "c" "pre");
  let r = ref None in
  Client.transact_put client
    [ (key_for cluster 4, "c", "post"); (key_for cluster 5, "c", "fresh") ]
    (fun x -> r := Some x);
  ignore (await engine r);
  check_int "existing row bumped" 2 (version_of (get_sync engine client (key_for cluster 4) "c"));
  check_int "new row at 1" 1 (version_of (get_sync engine client (key_for cluster 5) "c"))

let test_transaction_atomic_across_failover () =
  (* Fire transactions and multi-column puts continuously, kill the leader
     mid-stream, and verify afterwards that every write is all-or-nothing:
     the single-log-record design makes partial commits impossible even
     across crashes. *)
  let engine, cluster = boot ~seed:21 () in
  let client = Cluster.new_client cluster in
  let cells_per_write = 4 in
  (* Each input: the cells of write [i], and how to issue them. *)
  let inputs =
    [
      ( "txn",
        (fun i ->
          List.init cells_per_write (fun j -> (key_for cluster ((i * cells_per_write) + j), "c"))),
        fun rows -> Client.transact_put client rows (fun _ -> ()) );
      ( "multi_put",
        (fun i -> List.init cells_per_write (fun j -> (key_for cluster i, Printf.sprintf "m%d" j))),
        fun rows ->
          let key, _, _ = List.hd rows in
          Client.multi_put client key (List.map (fun (_, col, v) -> (col, v)) rows) (fun _ -> ()) );
    ]
  in
  let issued = ref 0 in
  let rec stream i =
    if i < 40 then begin
      List.iter
        (fun (_, cells, issue) ->
          issue (List.map (fun (key, col) -> (key, col, Printf.sprintf "t%d" i)) (cells i)))
        inputs;
      issued := i + 1;
      ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 20) (fun () -> stream (i + 1)))
    end
  in
  stream 0;
  (* Kill the range-0 leader while writes are in flight. *)
  Sim.Engine.run_for engine (Sim.Sim_time.ms 330);
  (match Cluster.leader_of cluster ~range:0 with
  | Some leader -> Cluster.crash_node cluster leader
  | None -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.sec 10);
  for i = 0 to !issued - 1 do
    List.iter
      (fun (name, cells, _) ->
        let present =
          List.filter
            (fun (key, col) ->
              value_of (get_sync engine client key col) = Some (Printf.sprintf "t%d" i))
            (cells i)
        in
        let n = List.length present in
        check_bool
          (Printf.sprintf "%s %d all-or-nothing (%d/%d cells)" name i n cells_per_write)
          true
          (n = 0 || n = cells_per_write))
      inputs
  done

let test_conditional_delete () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 12 in
  ignore (put_sync engine client key "c" "x");
  (* Wrong version fails and leaves the value... *)
  let r = ref None in
  Client.conditional_delete client key "c" ~expected:7 (fun x -> r := Some x);
  check_bool "stale version rejected" true (Result.is_error (await engine r));
  Alcotest.(check (option string)) "value intact" (Some "x")
    (value_of (get_sync engine client key "c"));
  (* ...the right version deletes. *)
  let r2 = ref None in
  Client.conditional_delete client key "c" ~expected:1 (fun x -> r2 := Some x);
  check_bool "matching version deletes" true (Result.is_ok (await engine r2));
  Alcotest.(check (option string)) "gone" None (value_of (get_sync engine client key "c"))

let test_multi_get_missing_columns () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 13 in
  ignore (put_sync engine client key "present" "yes");
  let g = ref None in
  Client.multi_get client key [ "present"; "absent" ] (fun x -> g := Some x);
  match await engine g with
  | Ok cols ->
    Alcotest.(check (list (pair string (option string))))
      "present and absent distinguished"
      [ ("present", Some "yes"); ("absent", None) ]
      (List.map (fun (c, Client.{ value; _ }) -> (c, value)) cols)
  | Error e -> Alcotest.failf "multi_get: %a" Client.pp_error e

(* --- range scans ---------------------------------------------------------------- *)

let scan_sync ?(consistent = true) ?limit engine client ~start_key ~end_key =
  let r = ref None in
  Client.scan client ~consistent ~start_key ~end_key ?limit (fun x -> r := Some x);
  match await engine r with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "scan failed: %a" Client.pp_error e

let test_scan_single_range () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  for i = 10 to 19 do
    ignore (put_sync engine client (key_for cluster i) "c" (Printf.sprintf "v%d" i))
  done;
  let rows =
    scan_sync engine client ~start_key:(key_for cluster 12) ~end_key:(key_for cluster 16)
  in
  Alcotest.(check (list string))
    "window [12,16)"
    (List.map (key_for cluster) [ 12; 13; 14; 15 ])
    (List.map fst rows);
  (* Values and versions ride along. *)
  (match rows with
  | (_, [ ("c", Client.{ value; version }) ]) :: _ ->
    Alcotest.(check (option string)) "value" (Some "v12") value;
    check_int "version" 1 version
  | _ -> Alcotest.fail "row shape")

let test_scan_spans_ranges () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  (* nodes=5 -> range width 20000; straddle the 20000 boundary. *)
  let keys = [ 19_998; 19_999; 20_000; 20_001; 20_002 ] in
  List.iter (fun i -> ignore (put_sync engine client (key_for cluster i) "c" "x")) keys;
  let rows =
    scan_sync engine client ~start_key:(key_for cluster 19_998)
      ~end_key:(key_for cluster 20_003)
  in
  Alcotest.(check (list string))
    "stitched across cohorts"
    (List.map (key_for cluster) keys)
    (List.map fst rows)

let test_scan_limit_respected_across_ranges () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  List.iter
    (fun i -> ignore (put_sync engine client (key_for cluster i) "c" "x"))
    [ 19_998; 19_999; 20_000; 20_001 ];
  let rows =
    scan_sync engine client ~limit:3 ~start_key:(key_for cluster 19_998)
      ~end_key:(key_for cluster 20_003)
  in
  check_int "limit across cohorts" 3 (List.length rows)

let test_scan_timeline_mode () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  for i = 30 to 34 do
    ignore (put_sync engine client (key_for cluster i) "c" "x")
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  let rows =
    scan_sync ~consistent:false engine client ~start_key:(key_for cluster 30)
      ~end_key:(key_for cluster 35)
  in
  check_int "timeline scan sees converged rows" 5 (List.length rows)

let test_scan_across_failover () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  for i = 50 to 54 do
    ignore (put_sync engine client (key_for cluster i) "c" "x")
  done;
  (* Kill the leader of the scanned range; the strong scan must retry through
     the election and still return every row. *)
  let range = Partition.route (Cluster.partition cluster) (key_for cluster 50) in
  (match Cluster.leader_of cluster ~range with
  | Some l -> Cluster.crash_node cluster l
  | None -> ());
  let rows =
    scan_sync engine client ~start_key:(key_for cluster 50) ~end_key:(key_for cluster 55)
  in
  check_int "all rows after failover" 5 (List.length rows)

let test_scan_excludes_deleted () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  for i = 40 to 44 do
    ignore (put_sync engine client (key_for cluster i) "c" "x")
  done;
  let r = ref None in
  Client.delete client (key_for cluster 42) "c" (fun x -> r := Some x);
  ignore (await engine r);
  let rows =
    scan_sync engine client ~start_key:(key_for cluster 40) ~end_key:(key_for cluster 45)
  in
  Alcotest.(check (list string))
    "deleted row omitted"
    (List.map (key_for cluster) [ 40; 41; 43; 44 ])
    (List.map fst rows)

(* --- consistency levels ------------------------------------------------------- *)

let test_strong_reads_see_latest () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 20 in
  for i = 1 to 10 do
    ignore (put_sync engine client key "c" (string_of_int i));
    Alcotest.(check (option string))
      "read your write" (Some (string_of_int i))
      (value_of (get_sync engine client key "c"))
  done

let test_timeline_read_eventually_fresh () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 21 in
  ignore (put_sync engine client key "c" "fresh");
  (* After a commit period (plus slack), every replica has applied the
     write, so any timeline read sees it. *)
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  for _ = 1 to 6 do
    Alcotest.(check (option string))
      "timeline read" (Some "fresh")
      (value_of (get_sync ~consistent:false engine client key "c"))
  done

let test_timeline_read_staleness_bounded () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 22 in
  ignore (put_sync engine client key "c" "old");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  ignore (put_sync engine client key "c" "new");
  (* Immediately after the write, followers may still serve the old value
     (that is the timeline contract)... *)
  let seen = ref [] in
  for _ = 1 to 6 do
    seen := value_of (get_sync ~consistent:false engine client key "c") :: !seen
  done;
  List.iter
    (fun v -> check_bool "old or new, never garbage" true (v = Some "old" || v = Some "new"))
    !seen;
  (* ...but staleness is bounded by the commit period. *)
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  for _ = 1 to 6 do
    Alcotest.(check (option string))
      "converged" (Some "new")
      (value_of (get_sync ~consistent:false engine client key "c"))
  done

let test_timeline_read_your_writes () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 24 in
  ignore (put_sync engine client key "c" "old");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  (* Immediately after each write — well inside the commit period, so
     followers have NOT applied it yet — the writing client's own timeline
     reads must still observe the write: its read-your-writes token parks
     the read at a follower (or redirects it to the leader) instead of
     letting a stale answer through. *)
  for i = 1 to 8 do
    ignore (put_sync engine client key "c" (string_of_int i));
    Alcotest.(check (option string))
      "timeline read sees own write" (Some (string_of_int i))
      (value_of (get_sync ~consistent:false engine client key "c"))
  done

let test_offline_replica_answers_unavailable () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 25 in
  ignore (put_sync engine client key "c" "x");
  let range = Partition.route (Cluster.partition cluster) key in
  let follower =
    List.find
      (fun n ->
        match Node.cohort (Cluster.node cluster n) ~range with
        | Some c -> Cohort.role c = Cohort.Follower
        | None -> false)
      (Partition.cohort (Cluster.partition cluster) ~range)
  in
  (* Knock just the cohort offline; the node stays up and reachable, so the
     request is delivered and must be answered. A silent drop here used to
     burn the client's whole retry timeout. *)
  Cohort.crash (Option.get (Node.cohort (Cluster.node cluster follower) ~range));
  let net = Cluster.net cluster in
  let probe_id = 99_999 in
  let got = ref None in
  Sim.Network.register net ~node:probe_id (fun env ->
      match env.Sim.Network.payload with
      | Message.Reply { reply; _ } -> got := Some reply
      | _ -> ());
  Sim.Network.send net ~src:probe_id ~dst:follower
    (Message.Request
       {
         client = probe_id;
         request_id = 1;
         floor = 1;
         op = Message.Get { key; col = "c"; consistent = false; token = Storage.Lsn.zero };
       });
  (match await engine ~timeout:(Sim.Sim_time.sec 2) got with
  | Message.Unavailable -> ()
  | _ -> Alcotest.fail "offline replica answered a timeline read with data, not Unavailable")

(* --- failover & recovery -------------------------------------------------------- *)

let leader_of_key cluster key =
  let range = Partition.route (Cluster.partition cluster) key in
  (range, Cluster.leader_of cluster ~range)

let test_leader_failover_no_committed_loss () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 30 in
  for i = 1 to 20 do
    ignore (put_sync engine client key "c" (string_of_int i))
  done;
  let range, leader = leader_of_key cluster key in
  let old_leader = Option.get leader in
  Cluster.crash_node cluster old_leader;
  (* The next write rides through election + takeover. *)
  check_bool "write succeeds across failover" true
    (Result.is_ok (put_sync engine client key "c" "21"));
  let new_leader = Cluster.leader_of cluster ~range in
  check_bool "new leader exists" true (new_leader <> None);
  check_bool "leader changed" true (new_leader <> Some old_leader);
  Alcotest.(check (option string)) "no committed write lost" (Some "21")
    (value_of (get_sync engine client key "c"));
  check_int "versions intact" 21 (version_of (get_sync engine client key "c"))

let test_old_leader_rejoins_as_follower () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 31 in
  ignore (put_sync engine client key "c" "1");
  let range, leader = leader_of_key cluster key in
  let old_leader = Option.get leader in
  Cluster.crash_node cluster old_leader;
  check_bool "write during failover" true (Result.is_ok (put_sync engine client key "c" "2"));
  Cluster.restart_node cluster old_leader;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  (* The old leader is back as a follower of the same range. *)
  (match Node.cohort (Cluster.node cluster old_leader) ~range with
  | Some c -> check_bool "follower role" true (Cohort.role c = Cohort.Follower)
  | None -> Alcotest.fail "cohort missing");
  check_bool "writes still work" true (Result.is_ok (put_sync engine client key "c" "3"));
  Alcotest.(check (option string)) "state" (Some "3") (value_of (get_sync engine client key "c"))

let test_epoch_increases_after_failover () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 32 in
  ignore (put_sync engine client key "c" "1");
  let range, leader = leader_of_key cluster key in
  let epoch_before =
    match Node.cohort (Cluster.node cluster (Option.get leader)) ~range with
    | Some c -> Cohort.epoch c
    | None -> 0
  in
  Cluster.crash_node cluster (Option.get leader);
  ignore (put_sync engine client key "c" "2");
  let new_leader = Option.get (Cluster.leader_of cluster ~range) in
  let epoch_after =
    match Node.cohort (Cluster.node cluster new_leader) ~range with
    | Some c -> Cohort.epoch c
    | None -> 0
  in
  check_bool "epoch grew" true (epoch_after > epoch_before)

let test_follower_crash_catchup_from_log () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 33 in
  ignore (put_sync engine client key "c" "1");
  let range, leader = leader_of_key cluster key in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  let follower = List.find (fun n -> Some n <> leader) members in
  Cluster.crash_node cluster follower;
  (* Majority still up: writes proceed while the follower is down. *)
  for i = 2 to 10 do
    check_bool "write with follower down" true
      (Result.is_ok (put_sync engine client key "c" (string_of_int i)))
  done;
  Cluster.restart_node cluster follower;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  (* The recovered follower serves a fresh timeline read. *)
  (match Node.cohort (Cluster.node cluster follower) ~range with
  | Some c ->
    check_bool "caught up" true (Storage.Lsn.compare (Cohort.cmt c) Storage.Lsn.zero > 0);
    check_bool "follower role" true (Cohort.role c = Cohort.Follower)
  | None -> Alcotest.fail "cohort missing");
  Alcotest.(check (option string)) "state intact" (Some "10")
    (value_of (get_sync engine client key "c"))

let test_minority_blocks_writes_timeline_survives () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 34 in
  ignore (put_sync engine client key "c" "alive");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  let range, _ = leader_of_key cluster key in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  (* Kill two of the three replicas: no quorum. *)
  (match members with
  | a :: b :: _ ->
    Cluster.crash_node cluster a;
    Cluster.crash_node cluster b
  | _ -> Alcotest.fail "cohort too small");
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  (* Strong write fails (retries exhausted)... *)
  check_bool "write blocked without majority" true
    (Result.is_error (put_sync engine client key "c" "nope"));
  (* ...but a timeline read is still served by the surviving replica (§8.1). *)
  Alcotest.(check (option string))
    "timeline read survives" (Some "alive")
    (value_of (get_sync ~consistent:false engine client key "c"));
  (* Restore one node: quorum returns and writes flow again. *)
  (match members with a :: _ -> Cluster.restart_node cluster a | [] -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  check_bool "write after quorum restored" true
    (Result.is_ok (put_sync engine client key "c" "back"))

let test_leader_partition_cannot_commit () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 35 in
  ignore (put_sync engine client key "c" "pre");
  let range, leader = leader_of_key cluster key in
  let leader = Option.get leader in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  let others = List.filter (fun n -> n <> leader) members in
  (* Cut the leader off from its followers (but not from clients or the
     coordination service in this model). *)
  Sim.Network.partition (Cluster.net cluster) [ leader ] others;
  let r = ref None in
  Client.put client key "c" ~value:"partitioned" (fun x -> r := Some x);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  (* No follower ack => not committed => no reply yet. *)
  check_bool "write not acknowledged under partition" true (!r = None);
  Sim.Network.heal (Cluster.net cluster);
  check_bool "commits after heal" true (Result.is_ok (await engine r))

(* A write's only Propose is lost on both follower links, and the links heal
   before the next commit tick. Nothing sends the write again but that tick's
   re-proposal of the uncommitted tail, sent beside the periodic commit
   message (§5): the write commits within about one commit period, its client
   hears once, and each follower logs and applies it once. *)
let test_lost_propose_reproposed_by_commit_tick () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 38 in
  ignore (put_sync engine client key "c" "pre");
  let range, leader = leader_of_key cluster key in
  let leader = Option.get leader in
  let followers =
    List.filter (fun n -> n <> leader) (Partition.cohort (Cluster.partition cluster) ~range)
  in
  let net = Cluster.net cluster in
  List.iter (fun f -> Sim.Network.partition_oneway net ~src:leader ~dst:f) followers;
  let replies = ref 0 and r = ref None in
  let sent = Sim.Engine.now engine in
  Client.put client key "c" ~value:"reproposed" (fun x ->
      incr replies;
      r := Some x);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
  check_bool "no follower got the Propose" true (!r = None);
  List.iter (fun f -> Sim.Network.heal_oneway net ~src:leader ~dst:f) followers;
  check_bool "committed" true (Result.is_ok (await engine r));
  let period = test_config.Config.commit_period in
  check_bool "committed within about one commit period" true
    (Sim.Sim_time.span_compare
       (Sim.Sim_time.diff (Sim.Engine.now engine) sent)
       (Sim.Sim_time.span_add period (Sim.Sim_time.ms 20))
    <= 0);
  (* Two more ticks bring the commit point to the followers. *)
  Sim.Engine.run_for engine (Sim.Sim_time.span_add period period);
  check_int "acknowledged once" 1 !replies;
  let cohort_on n = Option.get (Node.cohort (Cluster.node cluster n) ~range) in
  let lsn =
    match Cohort.read_local (cohort_on leader) (key, "c") with
    | Some cell -> cell.Storage.Row.lsn
    | None -> Alcotest.fail "leader lost the write"
  in
  List.iter
    (fun f ->
      (match Cohort.read_local (cohort_on f) (key, "c") with
      | Some cell ->
        Alcotest.(check (option string)) "follower applied it" (Some "reproposed")
          cell.Storage.Row.value;
        check_bool "at the leader's LSN" true (Storage.Lsn.compare cell.Storage.Row.lsn lsn = 0)
      | None -> Alcotest.fail "follower never applied the write");
      let copies =
        List.length
          (List.filter
             (fun { Storage.Log_record.cohort; entry } ->
               cohort = range
               &&
               match entry with
               | Storage.Log_record.Write w -> Storage.Lsn.compare w.lsn lsn = 0
               | _ -> false)
             (Storage.Wal.durable_records (Node.wal (Cluster.node cluster f))))
      in
      check_int "follower logged it once" 1 copies)
    followers

let test_full_cohort_restart_recovers_committed_state () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 36 in
  for i = 1 to 15 do
    ignore (put_sync engine client key "c" (string_of_int i))
  done;
  let range, _ = leader_of_key cluster key in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  List.iter (Cluster.crash_node cluster) members;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  List.iter (Cluster.restart_node cluster) members;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  Alcotest.(check (option string))
    "committed state recovered from logs" (Some "15")
    (value_of (get_sync engine client key "c"))

let test_disk_loss_recovered_from_peers () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 37 in
  for i = 1 to 10 do
    ignore (put_sync engine client key "c" (string_of_int i))
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  let range, leader = leader_of_key cluster key in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  let follower = List.find (fun n -> Some n <> leader) members in
  (* Destroy the follower's disk entirely; it must rebuild via catch-up. *)
  Cluster.crash_node cluster follower;
  Node.lose_disk (Cluster.node cluster follower);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Cluster.restart_node cluster follower;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  (match Node.cohort (Cluster.node cluster follower) ~range with
  | Some c ->
    check_bool "rebuilt from peers" true
      (Storage.Lsn.compare (Cohort.cmt c) Storage.Lsn.zero > 0)
  | None -> Alcotest.fail "cohort missing");
  Alcotest.(check (option string)) "data intact" (Some "10")
    (value_of (get_sync engine client key "c"))

(* --- routing ---------------------------------------------------------------------- *)

let test_misrouted_request_redirected () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  (* Writes to many keys across all ranges: every request finds its leader
     through hints even though the client cache starts empty. *)
  for i = 0 to 19 do
    let key = key_for cluster (i * 4777 mod Config.default.Config.key_space) in
    check_bool "routed write" true (Result.is_ok (put_sync engine client key "c" "x"))
  done

(* --- durability (§8.1) ---------------------------------------------------------------- *)

let test_survives_two_permanent_failures () =
  (* "A cohort will not lose committed data even if 2 out of 3 of its nodes
     permanently fail" (§8.1): destroy two replicas' disks; the survivor is
     elected (max last-LSN) and the data is intact once a quorum of
     replacement nodes catches up from it. *)
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 50 in
  ignore (put_sync engine client key "c" "precious");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 600);
  let range, _ = leader_of_key cluster key in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  (match members with
  | a :: b :: _ ->
    (* Permanent failures: crash and destroy stable storage. *)
    Cluster.crash_node cluster a;
    Node.lose_disk (Cluster.node cluster a);
    Cluster.crash_node cluster b;
    Node.lose_disk (Cluster.node cluster b);
    Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
    (* Replacement (blank) nodes come back; they must catch up from the
       survivor, which wins the election on max lst. *)
    Cluster.restart_node cluster a;
    Cluster.restart_node cluster b;
    Sim.Engine.run_for engine (Sim.Sim_time.sec 5)
  | _ -> Alcotest.fail "cohort too small");
  Alcotest.(check (option string))
    "committed data survives 2 permanent failures" (Some "precious")
    (value_of (get_sync engine client key "c"))

let test_piggybacked_commits_reduce_staleness () =
  let config = { test_config with Config.piggyback_commits = true; commit_period = Sim.Sim_time.sec 30 } in
  let engine, cluster = boot ~config () in
  let client = Cluster.new_client cluster in
  let key = key_for cluster 60 in
  (* With a 30 s commit period, follower freshness can only come from
     piggy-backed commit info on subsequent proposes (§D.1). *)
  ignore (put_sync engine client key "c" "first");
  ignore (put_sync engine client key "c" "second");
  ignore (put_sync engine client key "c" "third");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 200);
  (* Any replica now serves at most one write behind, despite no commit
     message ever having fired. *)
  for _ = 1 to 6 do
    let v = value_of (get_sync ~consistent:false engine client key "c") in
    check_bool "follower nearly fresh via piggyback" true
      (v = Some "third" || v = Some "second")
  done

(* --- group membership (§4.2) -------------------------------------------------------- *)

(* A client reads /layout and /ranges/<r>/leader over a session-less handle,
   so an idle client schedules nothing: a quiet cluster runs the same number
   of events with 0 and with 200 clients. A client that routed a write to a
   leader before it failed routes its next write to the new leader. *)
let test_idle_clients_schedule_nothing () =
  let idle_events clients =
    let engine, cluster = boot () in
    let made = List.init clients (fun _ -> Cluster.new_client cluster) in
    let before = Sim.Engine.events_run engine in
    Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
    (engine, cluster, made, Sim.Engine.events_run engine - before)
  in
  let _, _, _, baseline = idle_events 0 in
  let engine, cluster, clients, with_clients = idle_events 200 in
  check_int "events over 3 idle seconds, 0 vs 200 clients" baseline with_clients;
  let client = List.hd clients and key = key_for cluster 33 in
  check_bool "write before the failover" true (Result.is_ok (put_sync engine client key "c" "0"));
  let range, leader = leader_of_key cluster key in
  let old_leader = Option.get leader in
  Cluster.crash_node cluster old_leader;
  check_bool "write after the failover" true (Result.is_ok (put_sync engine client key "c" "1"));
  let new_leader = Cluster.leader_of cluster ~range in
  check_bool "served by a new leader" true (new_leader <> None && new_leader <> Some old_leader)

let test_membership_tracks_sessions () =
  let engine, cluster = boot () in
  Sim.Engine.run_for engine (Sim.Sim_time.ms 200);
  Alcotest.(check (list int))
    "all registered" [ 0; 1; 2; 3; 4 ]
    (List.sort compare (Cluster.registered_nodes cluster));
  Cluster.crash_node cluster 2;
  (* The ephemeral registration survives until the session expires. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  Alcotest.(check (list int))
    "crashed node dropped after expiry" [ 0; 1; 3; 4 ]
    (List.sort compare (Cluster.registered_nodes cluster));
  Cluster.restart_node cluster 2;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 200);
  Alcotest.(check (list int))
    "rejoin re-registers" [ 0; 1; 2; 3; 4 ]
    (List.sort compare (Cluster.registered_nodes cluster))

(* --- rolling upgrade (§1.1) --------------------------------------------------------- *)

let test_rolling_upgrade_stays_available () =
  (* "Online upgrades become easier, since one replica can be taken off line
     and upgraded, while the other 2 replicas are kept online" (§1.1): take
     every node down in turn; reads and writes keep flowing throughout. *)
  let engine, cluster = boot ~seed:29 () in
  let client = Cluster.new_client cluster in
  let ok = ref 0 and failed = ref 0 in
  let tick = ref 0 in
  let rec writer () =
    incr tick;
    let key = key_for cluster (!tick * 997 mod Config.default.Config.key_space) in
    Client.put client key "c" ~value:"x" (fun r ->
        (match r with Ok () -> incr ok | Error _ -> incr failed);
        ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 50) writer))
  in
  writer ();
  for node = 0 to 4 do
    Cluster.crash_node cluster node;
    Sim.Engine.run_for engine (Sim.Sim_time.sec 4);
    Cluster.restart_node cluster node;
    (* Let it catch up before upgrading the next one. *)
    Sim.Engine.run_for engine (Sim.Sim_time.sec 4)
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  check_bool
    (Printf.sprintf "writes flowed through rolling restarts (%d ok, %d failed)" !ok !failed)
    true
    (!ok > 200 && !failed = 0)

(* --- exactly-once: the reply cache and the completion floor ---------------------- *)

(* [n] distinct keys that all route to [range]. *)
let keys_in_range cluster ~range n =
  let partition = Cluster.partition cluster in
  let rec go i acc =
    if List.length acc = n then List.rev acc
    else
      let key = key_for cluster i in
      go (i + 1) (if Partition.route partition key = range then key :: acc else acc)
  in
  go 0 []

(* 200 writes from one client, all outstanding at once on one range, whose
   replies are all lost; the leader then crashes and every write is retried
   at the new leader, which rebuilt its reply cache from its log. Each must
   apply exactly once. A fixed 128-id window forgot the oldest outcomes and
   re-executed their retries. *)
let test_outstanding_writes_apply_once_across_crash () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let range = 0 in
  let keys = keys_in_range cluster ~range 200 in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let net = Cluster.net cluster in
  Sim.Network.partition_oneway net ~src:leader ~dst:(Client.id client);
  let settled = ref 0 and acked = ref 0 in
  List.iter
    (fun key ->
      Client.put client key "c" ~value:"v" (fun r ->
          incr settled;
          if Result.is_ok r then incr acked))
    keys;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 300);
  check_int "no reply reached the client" 0 !settled;
  Cluster.crash_node cluster leader;
  Sim.Network.heal_oneway net ~src:leader ~dst:(Client.id client);
  let all_settled = ref None in
  let rec wait () =
    if !settled = 200 then all_settled := Some ()
    else ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 5) wait)
  in
  wait ();
  await engine all_settled;
  check_int "every write acked" 200 !acked;
  check_bool "leader changed" true (Cluster.leader_of cluster ~range <> Some leader);
  let twice =
    List.filter (fun key -> version_of (get_sync engine client key "c") <> 1) keys
  in
  Alcotest.(check (list string)) "keys not applied exactly once" [] twice

(* A raw client: sends requests under its own id and collects the replies. *)
let probe_client cluster id =
  let replies = Hashtbl.create 8 in
  Sim.Network.register (Cluster.net cluster) ~node:id (fun env ->
      match env.Sim.Network.payload with
      | Message.Reply { request_id; reply } -> Hashtbl.replace replies request_id reply
      | _ -> ());
  let send ~dst ~request_id ~floor op =
    Hashtbl.remove replies request_id;
    Sim.Network.send (Cluster.net cluster) ~src:id ~dst
      (Message.Request { client = id; request_id; floor; op })
  in
  (send, replies)

let await_reply engine replies request_id =
  let cell = ref None in
  let rec poll () =
    match Hashtbl.find_opt replies request_id with
    | Some r -> cell := Some r
    | None -> ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 1) poll)
  in
  poll ();
  await engine cell

(* Once a request's floor passes an id, a late duplicate of that id is
   refused with [Stale_request] and never executed again, and the leader
   keeps no outcome below the floor. *)
let test_duplicate_below_floor_is_stale () =
  let engine, cluster = boot () in
  let range = 0 in
  let key, other =
    match keys_in_range cluster ~range 2 with [ a; b ] -> (a, b) | _ -> assert false
  in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let cohort = Option.get (Node.cohort (Cluster.node cluster leader) ~range) in
  let send, replies = probe_client cluster 99_998 in
  let put key = Message.Write { cells = [ (key, "c", Some "v", None) ] } in
  send ~dst:leader ~request_id:0 ~floor:0 (put key);
  (match await_reply engine replies 0 with
  | Message.Written _ -> ()
  | _ -> Alcotest.fail "first write not acked");
  send ~dst:leader ~request_id:1 ~floor:1 (put other);
  (match await_reply engine replies 1 with
  | Message.Written _ -> ()
  | _ -> Alcotest.fail "second write not acked");
  check_int "only the outcome at the floor is kept" 1 (Cohort.reply_cache_size cohort);
  send ~dst:leader ~request_id:0 ~floor:0 (put key);
  (match await_reply engine replies 0 with
  | Message.Stale_request -> ()
  | _ -> Alcotest.fail "duplicate below the floor not answered Stale_request");
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  let client = Cluster.new_client cluster in
  check_int "the duplicate did not apply" 1 (version_of (get_sync engine client key "c"))

(* Catch-up ships cells, which carry no origins, so it also ships the
   leader's settled reply cache: a replica that missed writes while down
   learns their outcomes, and would answer their retries if elected. *)
let test_catchup_carries_reply_cache () =
  let engine, cluster = boot () in
  let range = 0 in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let follower =
    List.find (fun n -> n <> leader) (Partition.cohort (Cluster.partition cluster) ~range)
  in
  Cluster.crash_node cluster follower;
  let send, replies = probe_client cluster 99_997 in
  List.iteri
    (fun request_id key ->
      send ~dst:leader ~request_id ~floor:0
        (Message.Write { cells = [ (key, "c", Some "v", None) ] });
      match await_reply engine replies request_id with
      | Message.Written _ -> ()
      | _ -> Alcotest.fail "write not acked")
    (keys_in_range cluster ~range 5);
  Cluster.restart_node cluster follower;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  let cohort = Option.get (Node.cohort (Cluster.node cluster follower) ~range) in
  check_bool "caught up as a follower" true (Cohort.role cohort = Cohort.Follower);
  check_int "the missed writes' outcomes" 5 (Cohort.reply_cache_size cohort)

(* Reply-cache memory is bounded by unsettled requests, not by writes run:
   32 closed-loop clients writing uniformly over 10 ranges for 20 simulated
   seconds never leave a cohort holding more than two outcomes per client. *)
let test_reply_cache_bounded_by_clients () =
  let engine, cluster = boot ~config:Config.default () in
  let clients = 32 in
  let partition = Cluster.partition cluster in
  check_int "ten ranges" 10 (Partition.ranges partition);
  let rng = Random.State.make [| 7 |] in
  let writes = ref 0 in
  let running = ref true in
  for _ = 1 to clients do
    let client = Cluster.new_client cluster in
    let rec loop () =
      if !running then begin
        let key = key_for cluster (Random.State.int rng (Partition.key_space partition)) in
        Client.put client key "c" ~value:"v" (fun _ ->
            incr writes;
            loop ())
      end
    in
    loop ()
  done;
  let worst = ref 0 in
  for _ = 1 to 200 do
    Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
    Array.iter
      (fun node ->
        for range = 0 to Partition.ranges partition - 1 do
          match Node.cohort node ~range with
          | Some c -> worst := max !worst (Cohort.reply_cache_size c)
          | None -> ()
        done)
      (Cluster.nodes cluster)
  done;
  running := false;
  check_bool (Printf.sprintf "writes ran (%d)" !writes) true (!writes > 10 * clients);
  check_bool
    (Printf.sprintf "largest reply cache %d <= %d" !worst (2 * clients))
    true
    (!worst <= 2 * clients)

(* --- chaos ------------------------------------------------------------------------ *)

let test_chaos_no_acked_write_lost () =
  let engine, cluster = boot ~seed:7 () in
  let client = Cluster.new_client cluster in
  let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let failure = Sim.Failure.create engine in
  (* One random node crashes and recovers, twice, while writes flow. *)
  let victims = [ 1; 3 ] in
  List.iteri
    (fun i v ->
      Sim.Failure.crash_for failure
        ~at:(Sim.Sim_time.at_us ((i + 1) * 2_000_000))
        ~down_for:(Sim.Sim_time.sec 1)
        (Node.failure_target (Cluster.node cluster v)))
    victims;
  for i = 0 to 39 do
    let key = key_for cluster (i * 2501 mod Config.default.Config.key_space) in
    let value = Printf.sprintf "v%d" i in
    (match put_sync engine client key "c" value with
    | Ok () -> Hashtbl.replace acked key value
    | Error _ -> ());
    Sim.Engine.run_for engine (Sim.Sim_time.ms 150)
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  (* Every acknowledged write must be durable and visible. *)
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string))
        (Printf.sprintf "acked write %s survives chaos" key)
        (Some value)
        (value_of (get_sync engine client key "c")))
    acked

(* A node restarted within the session timeout finds its old session's
   /nodes znode still in place. Once that session expires and the znode
   goes, the node registers again with its new session. *)
let test_quick_restart_reregisters () =
  let engine, cluster = boot ~config:Config.default () in
  let registered () = List.mem 3 (Cluster.registered_nodes cluster) in
  check_bool "registered at boot" true (registered ());
  Cluster.crash_node cluster 3;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  Cluster.restart_node cluster 3;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "registered after the old session expired" true (registered ())

(* A write's outcome outlives the log record that carried it: a flush rolls
   the record out of every replica's log, the whole cohort restarts, and the
   replica that then leads answers a retry with the original ack from the
   reply cache its checkpoint stored, instead of applying the write again. *)
let test_retry_after_rollover_and_restart () =
  let config = { test_config with Config.flush_bytes = 2 * 1024 } in
  let engine, cluster = boot ~config () in
  let range = 0 in
  let members = Partition.cohort (Cluster.partition cluster) ~range in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let key, fillers =
    match keys_in_range cluster ~range 40 with k :: rest -> (k, rest) | [] -> assert false
  in
  let send, replies = probe_client cluster 99_995 in
  let put = Message.Write { cells = [ (key, "c", Some "v", None) ] } in
  send ~dst:leader ~request_id:0 ~floor:0 put;
  let original =
    match await_reply engine replies 0 with
    | Message.Written { lsn } -> lsn
    | _ -> Alcotest.fail "write not acked"
  in
  (* Other keys fill the memtable past [flush_bytes] on every replica. *)
  let client = Cluster.new_client cluster in
  List.iter
    (fun k -> check_bool "filler" true (Result.is_ok (put_sync engine client k "c" (String.make 64 'x'))))
    fillers;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  List.iter
    (fun n ->
      let rolled =
        match Storage.Wal.min_available_write_lsn (Node.wal (Cluster.node cluster n)) ~cohort:range with
        | Some lsn -> Storage.Lsn.(lsn > original)
        | None -> true
      in
      check_bool (Printf.sprintf "n%d rolled the write's record over" n) true rolled)
    members;
  List.iter (Cluster.crash_node cluster) members;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  List.iter (Cluster.restart_node cluster) members;
  check_bool "ready again" true (Cluster.run_until_ready cluster);
  let leader' = Option.get (Cluster.leader_of cluster ~range) in
  send ~dst:leader' ~request_id:0 ~floor:0 put;
  (match await_reply engine replies 0 with
  | Message.Written { lsn } ->
    check_bool
      (Printf.sprintf "original ack %s, got %s" (Storage.Lsn.to_string original)
         (Storage.Lsn.to_string lsn))
      true (Storage.Lsn.equal lsn original)
  | _ -> Alcotest.fail "retry not acked");
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  check_int "applied once" 1 (version_of (get_sync engine client key "c"))

let suite =
  [
    Alcotest.test_case "put/get roundtrip" `Quick test_put_get_roundtrip;
    Alcotest.test_case "get missing key" `Quick test_get_missing_key;
    Alcotest.test_case "versions increment" `Quick test_versions_increment;
    Alcotest.test_case "delete + tombstone version" `Quick test_delete;
    Alcotest.test_case "conditional put" `Quick test_conditional_put;
    Alcotest.test_case "conditional increment loop" `Quick test_conditional_increment_loop;
    Alcotest.test_case "conditional race: one winner" `Quick test_conditional_racers_one_wins;
    Alcotest.test_case "multi-column put/get" `Quick test_multi_column_put_and_get;
    Alcotest.test_case "multi-column conditional put" `Quick test_multi_conditional_put;
    Alcotest.test_case "transaction: atomic commit" `Quick test_transaction_commits_atomically;
    Alcotest.test_case "transaction: cross-range rejected" `Quick
      test_transaction_cross_range_rejected;
    Alcotest.test_case "transaction: version assignment" `Quick test_transaction_versions_assigned;
    Alcotest.test_case "transaction: atomic across failover" `Slow
      test_transaction_atomic_across_failover;
    Alcotest.test_case "scan: single range" `Quick test_scan_single_range;
    Alcotest.test_case "scan: spans ranges" `Quick test_scan_spans_ranges;
    Alcotest.test_case "scan: limit across ranges" `Quick test_scan_limit_respected_across_ranges;
    Alcotest.test_case "scan: timeline mode" `Quick test_scan_timeline_mode;
    Alcotest.test_case "scan: excludes deleted rows" `Quick test_scan_excludes_deleted;
    Alcotest.test_case "scan: across failover" `Quick test_scan_across_failover;
    Alcotest.test_case "conditional delete" `Quick test_conditional_delete;
    Alcotest.test_case "multi-get: missing columns" `Quick test_multi_get_missing_columns;
    Alcotest.test_case "strong reads see latest" `Quick test_strong_reads_see_latest;
    Alcotest.test_case "timeline reads converge" `Quick test_timeline_read_eventually_fresh;
    Alcotest.test_case "timeline staleness bounded" `Quick test_timeline_read_staleness_bounded;
    Alcotest.test_case "timeline reads see own writes (token)" `Quick
      test_timeline_read_your_writes;
    Alcotest.test_case "offline replica answers Unavailable" `Quick
      test_offline_replica_answers_unavailable;
    Alcotest.test_case "leader failover: no committed loss" `Quick
      test_leader_failover_no_committed_loss;
    Alcotest.test_case "old leader rejoins as follower" `Quick test_old_leader_rejoins_as_follower;
    Alcotest.test_case "epoch increases after failover" `Quick test_epoch_increases_after_failover;
    Alcotest.test_case "follower catch-up from log" `Quick test_follower_crash_catchup_from_log;
    Alcotest.test_case "minority blocks writes; timeline survives" `Quick
      test_minority_blocks_writes_timeline_survives;
    Alcotest.test_case "partitioned leader cannot commit" `Quick test_leader_partition_cannot_commit;
    Alcotest.test_case "full cohort restart recovers" `Quick
      test_full_cohort_restart_recovers_committed_state;
    Alcotest.test_case "disk loss: rebuild from peers" `Quick test_disk_loss_recovered_from_peers;
    Alcotest.test_case "client routing via hints" `Quick test_misrouted_request_redirected;
    Alcotest.test_case "group membership tracks sessions" `Quick test_membership_tracks_sessions;
    Alcotest.test_case "durability: 2 permanent failures" `Slow
      test_survives_two_permanent_failures;
    Alcotest.test_case "piggy-backed commits reduce staleness" `Quick
      test_piggybacked_commits_reduce_staleness;
    Alcotest.test_case "rolling upgrade stays available" `Slow
      test_rolling_upgrade_stays_available;
    Alcotest.test_case "exactly-once: 200 outstanding writes across a crash" `Quick
      test_outstanding_writes_apply_once_across_crash;
    Alcotest.test_case "exactly-once: duplicate below the floor is stale" `Quick
      test_duplicate_below_floor_is_stale;
    Alcotest.test_case "exactly-once: catch-up carries the reply cache" `Quick
      test_catchup_carries_reply_cache;
    Alcotest.test_case "reply cache bounded by clients" `Quick test_reply_cache_bounded_by_clients;
    Alcotest.test_case "chaos: no acked write lost" `Slow test_chaos_no_acked_write_lost;
    Alcotest.test_case "multi-column writes are one log record" `Quick
      test_multi_column_write_is_one_record;
    Alcotest.test_case "idle clients schedule nothing" `Quick test_idle_clients_schedule_nothing;
    Alcotest.test_case "lost propose: commit tick re-proposes it" `Quick
      test_lost_propose_reproposed_by_commit_tick;
    Alcotest.test_case "membership: a quick restart registers again" `Quick
      test_quick_restart_reregisters;
    Alcotest.test_case "exactly-once: a retry after rollover and restart" `Quick
      test_retry_after_rollover_and_restart;
  ]
