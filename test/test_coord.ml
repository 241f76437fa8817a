(* Tests for the Zookeeper-like coordination service: znode tree semantics,
   sequential/ephemeral znodes, sessions, watches, and the client handle. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- ztree ---------------------------------------------------------------- *)

let tree () = Coord.Ztree.create ()

let create_ok t path =
  match
    Coord.Ztree.create_node t ~path ~data:"" ~mode:Coord.Ztree.Persistent ~sequential:false
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "create %s: %a" path Coord.Ztree.pp_error e

let test_ztree_create_get_set () =
  let t = tree () in
  ignore (create_ok t "/a");
  ignore (create_ok t "/a/b");
  check_bool "exists" true (Coord.Ztree.exists t ~path:"/a/b");
  check_bool "set" true (Coord.Ztree.set_data t ~path:"/a/b" ~data:"x" = Ok ());
  Alcotest.(check string) "get" "x"
    (match Coord.Ztree.get_data t ~path:"/a/b" with Ok d -> d | Error _ -> "?")

let test_ztree_missing_parent () =
  let t = tree () in
  check_bool "no parent" true
    (Coord.Ztree.create_node t ~path:"/x/y" ~data:"" ~mode:Coord.Ztree.Persistent
       ~sequential:false
    = Error Coord.Ztree.No_node)

let test_ztree_duplicate () =
  let t = tree () in
  ignore (create_ok t "/a");
  check_bool "dup" true
    (Coord.Ztree.create_node t ~path:"/a" ~data:"" ~mode:Coord.Ztree.Persistent
       ~sequential:false
    = Error Coord.Ztree.Node_exists)

let test_ztree_sequential_names () =
  let t = tree () in
  ignore (create_ok t "/dir");
  let mk () =
    match
      Coord.Ztree.create_node t ~path:"/dir/c-" ~data:"" ~mode:Coord.Ztree.Persistent
        ~sequential:true
    with
    | Ok p -> p
    | Error _ -> "?"
  in
  let a = mk () and b = mk () and c = mk () in
  check_bool "distinct" true (a <> b && b <> c);
  check_bool "lexicographic = creation order" true (a < b && b < c)

let test_ztree_delete_nonempty () =
  let t = tree () in
  ignore (create_ok t "/a");
  ignore (create_ok t "/a/b");
  check_bool "refuses non-empty" true
    (Coord.Ztree.delete_node t ~path:"/a" = Error Coord.Ztree.Not_empty);
  Coord.Ztree.delete_recursive t ~path:"/a";
  check_bool "gone" false (Coord.Ztree.exists t ~path:"/a")

let test_ztree_children_sorted () =
  let t = tree () in
  ignore (create_ok t "/d");
  List.iter (fun n -> ignore (create_ok t ("/d/" ^ n))) [ "b"; "c"; "a" ];
  match Coord.Ztree.children t ~path:"/d" with
  | Ok kids -> Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (List.map fst kids)
  | Error _ -> Alcotest.fail "children"

let test_ztree_ephemerals_of_session () =
  let t = tree () in
  ignore (create_ok t "/d");
  ignore
    (Coord.Ztree.create_node t ~path:"/d/e1" ~data:"" ~mode:(Coord.Ztree.Ephemeral 7)
       ~sequential:false);
  ignore
    (Coord.Ztree.create_node t ~path:"/d/e2" ~data:"" ~mode:(Coord.Ztree.Ephemeral 8)
       ~sequential:false);
  check_int "one ephemeral of session 7" 1
    (List.length (Coord.Ztree.ephemerals_of_session t ~session:7))

(* --- server: sessions, ephemerals, watches -------------------------------- *)

let server () =
  let engine = Sim.Engine.create () in
  let server = Coord.Zk_server.create engine ~session_timeout:(Sim.Sim_time.sec 2) () in
  (engine, server)

let test_session_expiry_deletes_ephemerals () =
  let engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/e" ~data:"" ~ephemeral:true
       ~sequential:false);
  check_bool "exists while live" true (Coord.Zk_server.exists server ~path:"/e");
  (* Stop heartbeating and let the sweep expire the session. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "expired" false (Coord.Zk_server.session_live server ~session);
  check_bool "ephemeral deleted" false (Coord.Zk_server.exists server ~path:"/e")

let test_heartbeats_keep_session () =
  let engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/e" ~data:"" ~ephemeral:true
       ~sequential:false);
  (* Heartbeat every 500 ms for 5 s. *)
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule engine
         ~after:(Sim.Sim_time.ms (i * 500))
         (fun () -> Coord.Zk_server.heartbeat server ~session))
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "still live" true (Coord.Zk_server.session_live server ~session);
  check_bool "ephemeral survives" true (Coord.Zk_server.exists server ~path:"/e")

let test_watch_fires_on_delete () =
  let engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/w" ~data:"" ~ephemeral:false
       ~sequential:false);
  let fired = ref 0 in
  Coord.Zk_server.watch_node server ~path:"/w" (fun () -> incr fired);
  ignore (Coord.Zk_server.delete_node server ~session ~path:"/w");
  check_int "fired once" 1 !fired;
  (* One-shot: re-creating must not fire the consumed watch. *)
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/w" ~data:"" ~ephemeral:false
       ~sequential:false);
  check_int "one-shot" 1 !fired;
  ignore engine

let test_child_watch () =
  let _engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/d" ~data:"" ~ephemeral:false
       ~sequential:false);
  let fired = ref 0 in
  Coord.Zk_server.watch_children server ~path:"/d" (fun () -> incr fired);
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/d/x" ~data:"" ~ephemeral:false
       ~sequential:false);
  check_int "child creation fires parent watch" 1 !fired

let test_watch_fires_on_session_expiry () =
  let engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/leader" ~data:"n1" ~ephemeral:true
       ~sequential:false);
  let fired = ref false in
  Coord.Zk_server.watch_node server ~path:"/leader" (fun () -> fired := true);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "expiry fired the watch" true !fired

let test_incr_counter () =
  let _engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  check_int "first" 1 (Coord.Zk_server.incr_counter server ~session ~path:"/epoch");
  check_int "second" 2 (Coord.Zk_server.incr_counter server ~session ~path:"/epoch");
  check_int "third" 3 (Coord.Zk_server.incr_counter server ~session ~path:"/epoch")

(* --- client ----------------------------------------------------------------- *)

let test_client_roundtrip_and_latency () =
  let engine, server = server () in
  let client = Coord.Zk_client.connect server ~owner:"t" () in
  let created_at = ref Sim.Sim_time.zero in
  Coord.Zk_client.create_node client ~path:"/c" (fun r ->
      check_bool "ok" true (Result.is_ok r);
      created_at := Sim.Engine.now engine);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_bool "paid a round trip" true Sim.Sim_time.(!created_at > Sim.Sim_time.zero)

let test_client_crash_suppresses_callbacks () =
  let engine, server = server () in
  let client = Coord.Zk_client.connect server ~owner:"t" () in
  let hits = ref 0 in
  Coord.Zk_client.create_node client ~path:"/c" (fun _ -> incr hits);
  Coord.Zk_client.crash client;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_int "no callback after crash" 0 !hits

let test_client_crash_expires_session () =
  let engine, server = server () in
  let client = Coord.Zk_client.connect server ~owner:"t" () in
  Coord.Zk_client.create_node client ~path:"/e" ~ephemeral:true (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_bool "created" true (Coord.Zk_server.exists server ~path:"/e");
  Coord.Zk_client.crash client;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "ephemeral gone after expiry" false (Coord.Zk_server.exists server ~path:"/e")

(* A node whose link is cut declares its session dead and reconnects with a
   fresh one, as a datastore node does. The server expires each abandoned
   session and keeps only the live one, however many came before it. *)
let test_reconnects_keep_only_live_session () =
  let engine, server = server () in
  let current = ref None in
  let rec connect_node () =
    let c = Coord.Zk_client.connect server ~owner:"node-3" () in
    Coord.Zk_client.set_on_session_expiry c (fun () -> current := Some (connect_node ()));
    c
  in
  current := Some (connect_node ());
  let live () = Option.get !current in
  for _ = 1 to 5 do
    let before = live () in
    Coord.Zk_client.set_reachable before false;
    Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
    check_bool "reconnected with a fresh session" true (live () != before)
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "the last session is live" true (Coord.Zk_client.alive (live ()));
  check_int "the server holds only the live session" 1 (Coord.Zk_server.session_count server)

let test_client_watch_delivery () =
  let engine, server = server () in
  let watcher = Coord.Zk_client.connect server ~owner:"w" () in
  let actor = Coord.Zk_client.connect server ~owner:"a" () in
  let fired = ref false in
  Coord.Zk_client.create_node actor ~path:"/n" (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
  Coord.Zk_client.watch_node watcher ~path:"/n" (fun () -> fired := true);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
  Coord.Zk_client.delete_node actor ~path:"/n" (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
  check_bool "watch delivered to client" true !fired

(* Regression for a real liveness bug: a client's requests must execute at
   the service in issue order (ZooKeeper's FIFO guarantee). The election's
   arm-watch-then-read pattern deadlocks without it. *)
let test_client_fifo_order () =
  let engine, server = server () in
  let client = Coord.Zk_client.connect server ~owner:"fifo" () in
  (* Issue many writes to one znode back-to-back; with FIFO the final data is
     the last issued value, deterministically. *)
  Coord.Zk_client.create_node client ~path:"/f" ~data:"0" (fun _ -> ());
  for i = 1 to 50 do
    Coord.Zk_client.set_data client ~path:"/f" ~data:(string_of_int i) (fun _ -> ())
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Alcotest.(check string) "last write wins in issue order" "50"
    (match Coord.Zk_server.get_data server ~path:"/f" with Ok d -> d | Error _ -> "?");
  (* And the watch-then-read pattern cannot miss a concurrent create: arm a
     watch and read children back-to-back; a create that the read misses must
     fire the watch. *)
  let other = Coord.Zk_client.connect server ~owner:"other" () in
  Coord.Zk_client.create_node client ~path:"/dir" (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
  let seen = ref 0 and fired = ref false in
  Coord.Zk_client.watch_children client ~path:"/dir" (fun () -> fired := true);
  Coord.Zk_client.children client ~path:"/dir" (function
    | Ok kids -> seen := List.length kids
    | Error _ -> ());
  Coord.Zk_client.create_node other ~path:"/dir/x" (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_bool "create visible to read or watch" true (!seen = 1 || !fired)

(* --- reader ----------------------------------------------------------------- *)

(* On a fresh server whose /r counts up by one every simulated microsecond,
   issue [n] reads of /r back to back through the read function [handle]
   makes on that server; returns (issue index, completion time, value read)
   in completion order. *)
let counting_reads handle n =
  let engine, server = server () in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/r" ~data:"0" ~ephemeral:false
       ~sequential:false);
  let rec tick v () =
    ignore (Coord.Zk_server.set_data server ~session ~path:"/r" ~data:(string_of_int v));
    if v < 5_000 then
      ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.us 1) (tick (v + 1)))
  in
  tick 1 ();
  let read = handle server in
  let done_ = ref [] in
  for i = 1 to n do
    read ~path:"/r" (fun r ->
        match r with
        | Ok v ->
          done_ := (i, Sim.Sim_time.time_to_us (Sim.Engine.now engine), int_of_string v) :: !done_
        | Error _ -> Alcotest.fail "read failed")
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 10);
  List.rev !done_

(* Reads over a reader execute at the service in issue order, and a reader
   draws the same latencies as a session handle made at the same point of
   the same seed: every read completes at the same instant with the same
   value. *)
let test_reader_fifo_same_latency () =
  let n = 40 in
  let by_reader =
    counting_reads (fun srv -> Coord.Zk_client.read (Coord.Zk_client.reader srv)) n
  in
  let by_session =
    counting_reads
      (fun srv -> Coord.Zk_client.get_data (Coord.Zk_client.connect srv ~owner:"t" ()))
      n
  in
  check_int "every read answered" n (List.length by_reader);
  let values = List.map (fun (_, _, v) -> v) (List.sort compare by_reader) in
  check_bool "FIFO: values strictly increase in issue order" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < n - 1) values) (List.tl values));
  check_bool "same instants and values as a session handle" true (by_reader = by_session)

let test_reader_opens_no_session () =
  let engine, server = server () in
  let trace = Sim.Trace.create ~capacity:64 engine in
  Coord.Zk_server.attach_trace server trace;
  let pending = Sim.Engine.pending engine in
  let reader = Coord.Zk_client.reader server in
  check_int "nothing scheduled" pending (Sim.Engine.pending engine);
  let got = ref None in
  Coord.Zk_client.read reader ~path:"/missing" (fun r -> got := Some r);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_bool "missing znode reads No_node" true (!got = Some (Error Coord.Ztree.No_node));
  check_int "no session opened" 0 (Sim.Trace.count trace ~tag:"zk.session_created");
  check_int "the next session is the first" 1 (Coord.Zk_server.open_session server)

(* Nothing keeps a reader alive, and nothing needs to: a read long after any
   session would have expired still gets its answer. *)
let test_reader_outlives_session_timeouts () =
  let engine, server = server () in
  let reader = Coord.Zk_client.reader server in
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/layout" ~data:"L" ~ephemeral:false
       ~sequential:false);
  Sim.Engine.run_for engine (Sim.Sim_time.span_scale (Coord.Zk_server.session_timeout server) 10.0);
  check_bool "the writer's session expired meanwhile" false
    (Coord.Zk_server.session_live server ~session);
  let got = ref None in
  Coord.Zk_client.read reader ~path:"/layout" (fun r -> got := Some r);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_bool "read answered" true (!got = Some (Ok "L"))

let prop_expired_sessions_leave_no_ephemerals =
  QCheck.Test.make ~name:"zk: expired sessions never leave ephemerals behind" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 3) bool))
    (fun clients_spec ->
      let engine = Sim.Engine.create () in
      let server = Coord.Zk_server.create engine ~session_timeout:(Sim.Sim_time.ms 500) () in
      let clients =
        List.mapi
          (fun i (_, keep_alive) ->
            let c = Coord.Zk_server.open_session server in
            ignore
              (Coord.Zk_server.create_node server ~session:c
                 ~path:(Printf.sprintf "/e%d" i)
                 ~data:"" ~ephemeral:true ~sequential:false);
            (i, c, keep_alive))
          clients_spec
      in
      (* Heartbeat only the keep-alive sessions across the whole window. *)
      for tick = 1 to 20 do
        ignore
          (Sim.Engine.schedule engine
             ~after:(Sim.Sim_time.ms (tick * 250))
             (fun () ->
               List.iter
                 (fun (_, session, keep) ->
                   if keep then Coord.Zk_server.heartbeat server ~session)
                 clients))
      done;
      Sim.Engine.run_for engine (Sim.Sim_time.sec 4);
      List.for_all
        (fun (i, _, keep) ->
          Coord.Zk_server.exists server ~path:(Printf.sprintf "/e%d" i) = keep)
        clients)

let prop_sequential_znodes_monotone =
  QCheck.Test.make ~name:"sequential znodes strictly increase" ~count:50
    (QCheck.int_range 2 30) (fun n ->
      let t = Coord.Ztree.create () in
      ignore
        (Coord.Ztree.create_node t ~path:"/d" ~data:"" ~mode:Coord.Ztree.Persistent
           ~sequential:false);
      let names =
        List.init n (fun _ ->
            match
              Coord.Ztree.create_node t ~path:"/d/s-" ~data:"" ~mode:Coord.Ztree.Persistent
                ~sequential:true
            with
            | Ok p -> p
            | Error _ -> "")
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      strictly_increasing names)

(* --- lifecycle events through the structured trace -------------------------- *)

let test_lifecycle_events_traced () =
  let engine = Sim.Engine.create () in
  let server = Coord.Zk_server.create engine ~session_timeout:(Sim.Sim_time.sec 2) () in
  let trace = Sim.Trace.create ~capacity:256 engine in
  Coord.Zk_server.attach_trace server trace;
  let session = Coord.Zk_server.open_session ~owner:"node-7" server in
  check_int "session creation traced" 1 (Sim.Trace.count trace ~tag:"zk.session_created");
  (match Sim.Trace.find trace ~tag:"zk.session_created" with
  | [ e ] ->
    check_int "owner parsed to node id" 7 e.Sim.Trace.node;
    check_bool "owner named in detail" true
      (String.length e.Sim.Trace.detail > 0
      && Option.is_some (String.index_opt e.Sim.Trace.detail '7'))
  | _ -> Alcotest.fail "expected one session_created event");
  check_bool "ephemeral create ok" true
    (Coord.Zk_server.create_node server ~session ~path:"/e" ~data:"" ~ephemeral:true
       ~sequential:false
    |> Result.is_ok);
  (match Sim.Trace.find trace ~tag:"zk.znode_created" with
  | [ e ] ->
    check_bool "created path in detail" true
      (String.length e.Sim.Trace.detail >= 2 && String.sub e.Sim.Trace.detail 0 2 = "/e")
  | _ -> Alcotest.fail "expected one znode_created event");
  (* Stop heartbeating: the sweep expires the session and reaps /e. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
  check_bool "session gone" false (Coord.Zk_server.session_live server ~session);
  check_int "expiry traced" 1 (Sim.Trace.count trace ~tag:"zk.session_expired");
  (match Sim.Trace.find trace ~tag:"zk.session_expired" with
  | [ e ] -> check_int "expiry attributed to the owner node" 7 e.Sim.Trace.node
  | _ -> Alcotest.fail "expected one session_expired event");
  check_bool "ephemeral reap traced" true (Sim.Trace.count trace ~tag:"zk.znode_deleted" >= 1)

let test_explicit_delete_traced () =
  let engine = Sim.Engine.create () in
  let server = Coord.Zk_server.create engine ~session_timeout:(Sim.Sim_time.sec 2) () in
  let trace = Sim.Trace.create ~capacity:64 engine in
  Coord.Zk_server.attach_trace server trace;
  let session = Coord.Zk_server.open_session server in
  ignore
    (Coord.Zk_server.create_node server ~session ~path:"/d" ~data:"" ~ephemeral:false
       ~sequential:false);
  check_bool "delete ok" true (Coord.Zk_server.delete_node server ~session ~path:"/d" |> Result.is_ok);
  check_int "delete traced" 1 (Sim.Trace.count trace ~tag:"zk.znode_deleted")

let suite =
  [
    Alcotest.test_case "ztree: create/get/set" `Quick test_ztree_create_get_set;
    Alcotest.test_case "ztree: missing parent" `Quick test_ztree_missing_parent;
    Alcotest.test_case "ztree: duplicate create" `Quick test_ztree_duplicate;
    Alcotest.test_case "ztree: sequential names" `Quick test_ztree_sequential_names;
    Alcotest.test_case "ztree: delete semantics" `Quick test_ztree_delete_nonempty;
    Alcotest.test_case "ztree: children sorted" `Quick test_ztree_children_sorted;
    Alcotest.test_case "ztree: ephemerals by session" `Quick test_ztree_ephemerals_of_session;
    Alcotest.test_case "server: session expiry deletes ephemerals" `Quick
      test_session_expiry_deletes_ephemerals;
    Alcotest.test_case "server: heartbeats keep session" `Quick test_heartbeats_keep_session;
    Alcotest.test_case "server: node watch one-shot" `Quick test_watch_fires_on_delete;
    Alcotest.test_case "server: child watch" `Quick test_child_watch;
    Alcotest.test_case "server: watch on expiry" `Quick test_watch_fires_on_session_expiry;
    Alcotest.test_case "server: epoch counter" `Quick test_incr_counter;
    Alcotest.test_case "server: lifecycle events traced" `Quick test_lifecycle_events_traced;
    Alcotest.test_case "server: explicit delete traced" `Quick test_explicit_delete_traced;
    Alcotest.test_case "client: roundtrip latency" `Quick test_client_roundtrip_and_latency;
    Alcotest.test_case "client: crash suppresses callbacks" `Quick
      test_client_crash_suppresses_callbacks;
    Alcotest.test_case "client: crash expires session" `Quick test_client_crash_expires_session;
    Alcotest.test_case "client: reconnects leave only the live session" `Quick
      test_reconnects_keep_only_live_session;
    Alcotest.test_case "client: watch delivery" `Quick test_client_watch_delivery;
    Alcotest.test_case "client: FIFO request order (regression)" `Quick test_client_fifo_order;
    Alcotest.test_case "reader: FIFO and a session handle's latency" `Quick
      test_reader_fifo_same_latency;
    Alcotest.test_case "reader: opens no session" `Quick test_reader_opens_no_session;
    Alcotest.test_case "reader: reads after ten session timeouts" `Quick
      test_reader_outlives_session_timeouts;
    QCheck_alcotest.to_alcotest prop_expired_sessions_leave_no_ephemerals;
    QCheck_alcotest.to_alcotest prop_sequential_znodes_monotone;
  ]
