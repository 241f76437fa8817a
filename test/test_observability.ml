(* Observability layer: trace ring buffer, causal span coverage of the write
   path, metrics-registry gauge sampling, Perfetto export round-trip, and
   the failover-timeline analyzer. *)

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

(* --- ring buffer ------------------------------------------------------------ *)

let test_ring_buffer_overwrite () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create ~capacity:8 engine in
  check_int "capacity" 8 (Sim.Trace.capacity trace);
  for i = 0 to 19 do
    Sim.Trace.emit trace ~tag:(Printf.sprintf "t%d" i) "x"
  done;
  check_int "length capped" 8 (Sim.Trace.length trace);
  check_int "dropped counts overwrites" 12 (Sim.Trace.dropped trace);
  let tags = List.map (fun e -> e.Sim.Trace.tag) (Sim.Trace.events trace) in
  Alcotest.(check (list string))
    "oldest-first, newest retained"
    [ "t12"; "t13"; "t14"; "t15"; "t16"; "t17"; "t18"; "t19" ]
    tags;
  Sim.Trace.clear trace;
  check_int "clear resets length" 0 (Sim.Trace.length trace);
  check_int "clear resets dropped" 0 (Sim.Trace.dropped trace)

let test_span_ids_unique () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create ~capacity:64 engine in
  let a = Sim.Trace.span_start trace ~tag:"s" "first" in
  let b = Sim.Trace.span_start trace ~tag:"s" "second" in
  check_bool "never zero" true (a <> 0 && b <> 0);
  check_bool "unique" true (a <> b);
  Sim.Trace.span_end trace ~span:a ~tag:"s" "done";
  let kinds = List.map (fun e -> e.Sim.Trace.kind) (Sim.Trace.events trace) in
  Alcotest.(check int) "three events" 3 (List.length kinds);
  let ends =
    List.filter
      (fun e -> e.Sim.Trace.kind = Sim.Trace.Span_end && e.Sim.Trace.span_id = a)
      (Sim.Trace.events trace)
  in
  check_int "end pairs with start id" 1 (List.length ends)

let test_disabled_trace_drops () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create ~capacity:8 engine in
  Sim.Trace.enable trace false;
  Sim.Trace.emit trace ~tag:"t" "x";
  check_int "nothing recorded" 0 (Sim.Trace.length trace);
  Sim.Trace.enable trace true;
  Sim.Trace.emit trace ~tag:"t" "x";
  check_int "recording again" 1 (Sim.Trace.length trace)

(* --- metrics registry ------------------------------------------------------- *)

let test_gauge_sampling () =
  let engine = Sim.Engine.create () in
  let registry = Sim.Metrics.Registry.create engine in
  let v = ref 0 in
  let g = Sim.Metrics.Registry.register_gauge registry ~node:3 ~name:"depth" (fun () -> !v) in
  Sim.Metrics.Registry.start_sampling registry ~period:(Sim.Sim_time.ms 10);
  Sim.Metrics.Registry.start_sampling registry ~period:(Sim.Sim_time.ms 10) (* idempotent *);
  v := 7;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 35);
  v := 11;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 30);
  check_bool "several samples" true (Sim.Metrics.Registry.samples_taken registry >= 5);
  check_int "gauge node" 3 (Sim.Metrics.Gauge.node g);
  let points = Sim.Metrics.Gauge.points g in
  check_int "one point per sample" (Sim.Metrics.Registry.samples_taken registry)
    (List.length points);
  let ts = List.map fst points in
  check_bool "timestamps strictly increasing" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts));
  (match Sim.Metrics.Gauge.last g with
  | Some (_, value) -> check_int "last sample sees current value" 11 value
  | None -> Alcotest.fail "no samples");
  check_bool "early sample saw old value" true
    (List.exists (fun (_, value) -> value = 7) points)

let test_gauge_cap_drops_oldest () =
  let engine = Sim.Engine.create () in
  let registry = Sim.Metrics.Registry.create ~max_points_per_gauge:4 engine in
  let n = ref 0 in
  let g = Sim.Metrics.Registry.register_gauge registry ~node:0 ~name:"n" (fun () -> incr n; !n) in
  Sim.Metrics.Registry.start_sampling registry ~period:(Sim.Sim_time.ms 10);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  check_int "capped" 4 (List.length (Sim.Metrics.Gauge.points g));
  check_bool "dropped counted" true (Sim.Metrics.Gauge.dropped g > 0);
  let values = List.map snd (Sim.Metrics.Gauge.points g) in
  check_bool "newest retained" true (List.mem !n values)

let test_registry_create_or_get () =
  let engine = Sim.Engine.create () in
  let registry = Sim.Metrics.Registry.create engine in
  let c1 = Sim.Metrics.Registry.counter registry ~name:"ops" in
  let c2 = Sim.Metrics.Registry.counter registry ~name:"ops" in
  Sim.Metrics.Counter.incr c1;
  Sim.Metrics.Counter.incr c2;
  check_int "same counter by name" 2 (Sim.Metrics.Counter.value c1);
  let h1 = Sim.Metrics.Registry.histogram registry ~name:"lat" in
  let h2 = Sim.Metrics.Registry.histogram registry ~name:"lat" in
  Sim.Metrics.Histogram.record h1 1.0;
  Sim.Metrics.Histogram.record h2 2.0;
  check_int "same histogram by name" 2 (Sim.Metrics.Histogram.count h1)

let test_histogram_percentile_cache () =
  let h = Sim.Metrics.Histogram.create ~name:"h" () in
  List.iter (Sim.Metrics.Histogram.record h) [ 5.0; 1.0; 3.0 ];
  Alcotest.(check (float 0.001)) "p50 sorts" 3.0 (Sim.Metrics.Histogram.percentile h 0.5);
  Alcotest.(check (list (float 0.001)))
    "samples keep insertion order" [ 5.0; 1.0; 3.0 ]
    (Sim.Metrics.Histogram.samples h);
  (* A record after a percentile query must invalidate the cached sort. *)
  Sim.Metrics.Histogram.record h 0.5;
  Alcotest.(check (float 0.001)) "cache invalidated" 0.5 (Sim.Metrics.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.001)) "max tracks new sample" 5.0 (Sim.Metrics.Histogram.percentile h 1.0)

(* --- Perfetto export round-trip --------------------------------------------- *)

let test_perfetto_roundtrip () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create ~capacity:64 engine in
  let registry = Sim.Metrics.Registry.create engine in
  let depth = ref 4 in
  ignore (Sim.Metrics.Registry.register_gauge registry ~node:1 ~name:"queue" (fun () -> !depth));
  Sim.Metrics.Registry.start_sampling registry ~period:(Sim.Sim_time.ms 10);
  let span = Sim.Trace.span_start trace ~trace_id:99 ~node:1 ~cohort:0 ~tag:"phase.force" "w" in
  Sim.Engine.run_for engine (Sim.Sim_time.ms 25);
  Sim.Trace.span_end trace ~span ~trace_id:99 ~node:1 ~cohort:0 ~lsn:"1.5" ~tag:"phase.force" "d";
  Sim.Trace.event trace ~node:2 ~cohort:0 ~tag:"zk.session_expired" "session=1";
  let doc = Sim.Trace_export.to_json ~registry trace in
  let text = Sim.Json.to_string doc in
  match Sim.Json.of_string text with
  | Error e -> Alcotest.failf "export did not parse back: %s" e
  | Ok parsed ->
    let events =
      match Sim.Json.member "traceEvents" parsed with
      | Some (Sim.Json.List l) -> l
      | _ -> Alcotest.fail "traceEvents missing"
    in
    let ph e = match Sim.Json.member "ph" e with Some (Sim.Json.String s) -> s | _ -> "?" in
    let count p = List.length (List.filter (fun e -> ph e = p) events) in
    check_int "one async begin" 1 (count "b");
    check_int "one async end" 1 (count "e");
    check_int "one instant" 1 (count "i");
    check_bool "gauge counter events present" true (count "C" >= 2);
    check_bool "process-name metadata present" true (count "M" >= 1);
    let begin_ev = List.find (fun e -> ph e = "b") events in
    (match Sim.Json.member "pid" begin_ev with
    | Some (Sim.Json.Int 1) -> ()
    | _ -> Alcotest.fail "span pid should be the emitting node");
    (match Sim.Json.member "id" begin_ev with
    | Some (Sim.Json.Int id) -> check_int "async id is the span id" span id
    | _ -> Alcotest.fail "span id missing");
    (match Sim.Json.member "otherData" parsed with
    | Some other -> (
      match Sim.Json.member "retained_events" other with
      | Some (Sim.Json.Int n) -> check_int "retained_events" (Sim.Trace.length trace) n
      | _ -> Alcotest.fail "retained_events missing")
    | None -> Alcotest.fail "otherData missing")

(* The log's growth is visible in the registry: each acknowledged write is
   durable in the log of at least a majority of its cohort, and nothing
   rolls the log over before a memtable flush. *)
let test_log_records_gauge () =
  let engine, cluster = boot () in
  let log_records () =
    List.fold_left
      (fun acc g ->
        if String.ends_with ~suffix:"_log_records" (Sim.Metrics.Gauge.name g) then
          acc + Sim.Metrics.Gauge.read g
        else acc)
      0
      (Sim.Metrics.Registry.gauges (Cluster.metrics cluster))
  in
  let before = log_records () in
  let client = Cluster.new_client cluster in
  let writes = 10 in
  for i = 0 to writes - 1 do
    let key = Partition.key_of_int (Cluster.partition cluster) (100 + i) in
    match put_sync engine client key "c" (Printf.sprintf "v%d" i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put %d failed: %a" i Client.pp_error e
  done;
  check_bool "two durable copies per acknowledged write" true
    (log_records () - before >= 2 * writes)

(* --- causal span coverage of the write path ---------------------------------- *)

(* Every committed client write must carry all four leader phases (Figure 4:
   queue -> force / replication -> apply) under its request-derived trace id,
   plus the client's own request span. *)
let test_write_path_span_coverage () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let writes = 5 in
  for i = 0 to writes - 1 do
    let key = Partition.key_of_int (Cluster.partition cluster) (100 + i) in
    match put_sync engine client key "c" (Printf.sprintf "v%d" i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put %d failed: %a" i Client.pp_error e
  done;
  let events = Sim.Trace.events (Cluster.trace cluster) in
  let has ~trace_id ~tag kind =
    List.exists
      (fun e ->
        e.Sim.Trace.trace_id = trace_id && String.equal e.Sim.Trace.tag tag
        && e.Sim.Trace.kind = kind)
      events
  in
  for request_id = 0 to writes - 1 do
    let trace_id = Sim.Trace.request_trace_id ~client:(Client.id client) ~request_id in
    List.iter
      (fun tag ->
        check_bool
          (Printf.sprintf "request %d has %s start" request_id tag)
          true
          (has ~trace_id ~tag Sim.Trace.Span_start);
        check_bool
          (Printf.sprintf "request %d has %s end" request_id tag)
          true
          (has ~trace_id ~tag Sim.Trace.Span_end))
      [ "client.request"; "phase.queue"; "phase.force"; "phase.replication"; "phase.apply" ]
  done;
  (* Leader-side spans carry the cohort and an LSN on the force phase. *)
  let forces =
    List.filter
      (fun e ->
        String.equal e.Sim.Trace.tag "phase.force" && e.Sim.Trace.kind = Sim.Trace.Span_start)
      events
  in
  check_bool "force spans recorded" true (List.length forces >= writes);
  List.iter
    (fun e ->
      check_bool "force span has cohort" true (e.Sim.Trace.cohort >= 0);
      check_bool "force span has lsn" true (String.length e.Sim.Trace.lsn > 0))
    forces

(* --- failover timeline -------------------------------------------------------- *)

let test_failover_timeline () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let width = test_config.Config.key_space / test_config.Config.nodes in
  let cursor = ref 0 in
  let rec writer () =
    let key = Partition.key_of_int (Cluster.partition cluster) (!cursor mod width) in
    incr cursor;
    Client.put client key "c" ~value:"v" (fun _ -> writer ())
  in
  for _ = 1 to 4 do
    writer ()
  done;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  let leader = Option.get (Cluster.leader_of cluster ~range:0) in
  let t_crash = Sim.Engine.now engine in
  Cluster.crash_node cluster leader;
  let committed () =
    List.exists
      (fun e ->
        e.Sim.Trace.cohort = 0
        && e.Sim.Trace.kind = Sim.Trace.Span_end
        && Sim.Sim_time.(e.Sim.Trace.at > t_crash))
      (Sim.Trace.find (Cluster.trace cluster) ~tag:"phase.apply")
  in
  let deadline = Sim.Sim_time.add t_crash (Sim.Sim_time.sec 60) in
  let rec wait () =
    if committed () then ()
    else if Sim.Sim_time.(Sim.Engine.now engine >= deadline) then
      Alcotest.fail "no committed write after crash"
    else begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 20);
      wait ()
    end
  in
  wait ();
  let tl =
    Sim.Timeline.analyze ~leader
      ~events:(Sim.Trace.events (Cluster.trace cluster))
      ~crash_at:t_crash ~cohort:0 ()
  in
  check_bool "origin is the injected crash instant" true (tl.Sim.Timeline.crash_at = t_crash);
  check_bool "session expiry observed" true (tl.Sim.Timeline.session_expired_at <> None);
  check_bool "election observed" true (tl.Sim.Timeline.election_started_at <> None);
  check_bool "new leader opened" true (tl.Sim.Timeline.cohort_open_at <> None);
  (match tl.Sim.Timeline.unavailability with
  | None -> Alcotest.fail "unavailability window not measured"
  | Some w ->
    let ms = Sim.Sim_time.to_ms_f w in
    check_bool "window is positive and finite" true (ms > 0.0 && ms < 60_000.0);
    (* The outage must at least cover failure detection (the ZK session
       timeout) under this config. *)
    check_bool "window covers failure detection" true
      (ms >= Sim.Sim_time.to_ms_f test_config.Config.session_timeout));
  (* The causal chain is ordered. *)
  let ordered a b =
    match (a, b) with
    | Some x, Some y -> Sim.Sim_time.(x <= y)
    | _ -> true
  in
  check_bool "expiry before election" true
    (ordered tl.Sim.Timeline.session_expired_at tl.Sim.Timeline.election_started_at);
  check_bool "election before open" true
    (ordered tl.Sim.Timeline.election_started_at tl.Sim.Timeline.cohort_open_at);
  check_bool "open before first commit" true
    (ordered tl.Sim.Timeline.cohort_open_at tl.Sim.Timeline.first_commit_at);
  (* Restart the crashed leader: catch-up duration becomes measurable. *)
  Cluster.restart_node cluster leader;
  let t_restart = Sim.Engine.now engine in
  let caught_up () =
    List.exists
      (fun e ->
        e.Sim.Trace.cohort = 0 && e.Sim.Trace.node = leader
        && Sim.Sim_time.(e.Sim.Trace.at > t_restart))
      (Sim.Trace.find (Cluster.trace cluster) ~tag:"follower_active")
  in
  let deadline = Sim.Sim_time.add t_restart (Sim.Sim_time.sec 60) in
  let rec wait_catchup () =
    if caught_up () then ()
    else if Sim.Sim_time.(Sim.Engine.now engine >= deadline) then
      Alcotest.fail "restarted leader never caught up"
    else begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 20);
      wait_catchup ()
    end
  in
  wait_catchup ();
  let tl =
    Sim.Timeline.analyze ~leader
      ~events:(Sim.Trace.events (Cluster.trace cluster))
      ~crash_at:t_crash ~cohort:0 ()
  in
  check_bool "restart observed" true (tl.Sim.Timeline.restart_at <> None);
  (match tl.Sim.Timeline.catchup with
  | None -> Alcotest.fail "catch-up not measured"
  | Some c -> check_bool "catch-up positive" true (Sim.Sim_time.to_ms_f c > 0.0));
  (* JSON view matches the analysis. *)
  (match Sim.Json.member "unavailability_ms" (Sim.Timeline.to_json tl) with
  | Some (Sim.Json.Float _) -> ()
  | _ -> Alcotest.fail "unavailability_ms not numeric in JSON")

(* --- outlier flight recorder -------------------------------------------------- *)

(* Pins are copied out of the ring at completion time, so they must survive a
   full ring wraparound that evicts every one of the request's events. *)
let test_flight_pins_survive_eviction () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create ~capacity:16 engine in
  let f = Sim.Trace.Flight.create ~top_k:2 ~window:(Sim.Sim_time.sec 100) trace in
  let note_request ~trace_id ~ms ~events =
    let started = Sim.Engine.now engine in
    for i = 0 to events - 1 do
      Sim.Trace.event trace ~trace_id ~tag:(Printf.sprintf "step%d" i) "x"
    done;
    Sim.Engine.run_for engine (Sim.Sim_time.ms ms);
    Sim.Trace.event trace ~trace_id ~tag:"done" "x";
    Sim.Trace.Flight.note f ~trace_id ~started
  in
  note_request ~trace_id:7 ~ms:50 ~events:2;
  note_request ~trace_id:8 ~ms:20 ~events:1;
  note_request ~trace_id:9 ~ms:30 ~events:1;
  check_int "top-K caps the window's pins" 2 (Sim.Trace.Flight.pinned f);
  (* Wrap the ring completely with unrelated noise. *)
  for i = 0 to 63 do
    Sim.Trace.event trace ~trace_id:(1000 + i) ~tag:"noise" "x"
  done;
  check_bool "ring evicted the outlier's events" true
    (not (List.exists (fun e -> e.Sim.Trace.trace_id = 7) (Sim.Trace.events trace)));
  match Sim.Trace.Flight.outliers f with
  | [ a; b ] ->
    check_int "slowest first" 7 a.Sim.Trace.Flight.trace_id;
    check_int "second slowest retained, faster one evicted" 9 b.Sim.Trace.Flight.trace_id;
    check_int "pinned events survive ring eviction" 3
      (List.length a.Sim.Trace.Flight.events);
    check_bool "latency measured from submit" true
      (a.Sim.Trace.Flight.latency_us >= 50_000.0);
    check_bool "pin captured before eviction is complete" false
      a.Sim.Trace.Flight.incomplete;
    (* The pinned outliers export as a self-contained Perfetto trace. *)
    (match Sim.Json.of_string (Sim.Json.to_string (Sim.Trace_export.outliers_to_json f)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "outlier export does not round-trip: %s" e)
  | os -> Alcotest.failf "expected 2 pinned outliers, got %d" (List.length os)

(* --- cross-node causal DAG ----------------------------------------------------- *)

(* One isolated write; its net.transit spans must form a connected causal
   chain across the cluster: client -> leader (request), leader -> both
   followers (propose), followers -> leader (acks), leader -> client
   (reply). A lone write's ack is tagged with that write. *)
let test_transit_dag_connected () =
  let engine, cluster = boot () in
  let client = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 42 in
  (match put_sync engine client key "c" "v" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put failed: %a" Client.pp_error e);
  let trace_id = Sim.Trace.request_trace_id ~client:(Client.id client) ~request_id:0 in
  let transits =
    List.filter
      (fun e ->
        e.Sim.Trace.trace_id = trace_id && String.equal e.Sim.Trace.tag "net.transit")
      (Sim.Trace.events (Cluster.trace cluster))
  in
  (* Pair each transit start (src node) with its end (dst node). *)
  let hops =
    List.filter_map
      (fun e ->
        if e.Sim.Trace.kind <> Sim.Trace.Span_start then None
        else
          match
            List.find_opt
              (fun e' ->
                e'.Sim.Trace.kind = Sim.Trace.Span_end
                && e'.Sim.Trace.span_id = e.Sim.Trace.span_id)
              transits
          with
          | Some e' ->
            check_bool "hop does not go back in time" true
              Sim.Sim_time.(e'.Sim.Trace.at >= e.Sim.Trace.at);
            Some (e.Sim.Trace.node, e'.Sim.Trace.node)
          | None -> None)
      transits
  in
  let cid = Client.id client in
  let leader =
    match List.find_opt (fun (src, _) -> src = cid) hops with
    | Some (_, l) -> l
    | None -> Alcotest.fail "no client -> leader hop"
  in
  let followers =
    List.sort_uniq compare
      (List.filter_map (fun (s, d) -> if s = leader && d <> cid then Some d else None) hops)
  in
  check_bool "leader proposed to both followers" true (List.length followers >= 2);
  List.iter
    (fun fl ->
      check_bool (Printf.sprintf "follower %d acked back to the leader" fl) true
        (List.mem (fl, leader) hops))
    followers;
  check_bool "leader replied to the client" true (List.mem (leader, cid) hops);
  (* Connectivity: every node the request touched is reachable from the
     client by following hops. *)
  let nodes = List.sort_uniq compare (List.concat_map (fun (s, d) -> [ s; d ]) hops) in
  let reachable = Hashtbl.create 8 in
  Hashtbl.replace reachable cid ();
  let rec grow () =
    let grew = ref false in
    List.iter
      (fun (s, d) ->
        if Hashtbl.mem reachable s && not (Hashtbl.mem reachable d) then begin
          Hashtbl.replace reachable d ();
          grew := true
        end)
      hops;
    if !grew then grow ()
  in
  grow ();
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "node %d reachable from the client" n) true
        (Hashtbl.mem reachable n))
    nodes

(* --- conservation: segments sum to the measured latency ------------------------ *)

let prop_critpath_conservation =
  QCheck.Test.make ~name:"critpath: segments sum to client latency (within 1%)" ~count:6
    QCheck.(triple (int_range 1 6) (int_range 2 8) (int_bound 999))
    (fun (writers, tenths, salt) ->
      let config = { test_config with Config.trace_capacity = 1 lsl 18 } in
      let engine, cluster = boot ~config ~seed:(1000 + salt) () in
      let client = Cluster.new_client cluster in
      let cursor = ref 0 in
      let rec writer () =
        let key =
          Partition.key_of_int (Cluster.partition cluster)
            (!cursor * 97 mod config.Config.key_space)
        in
        incr cursor;
        Client.put client key "c" ~value:"v" (fun _ -> writer ())
      in
      for _ = 1 to writers do
        writer ()
      done;
      Sim.Engine.run_for engine (Sim.Sim_time.ms (tenths * 100));
      let trace = Cluster.trace cluster in
      let analysis =
        Sim.Critpath.analyze ~dropped:(Sim.Trace.dropped trace)
          ~events:(Sim.Trace.events trace) ()
      in
      if analysis.Sim.Critpath.requests = [] then
        QCheck.Test.fail_report "no analyzable requests";
      List.for_all
        (fun r -> Sim.Critpath.conservation_error r <= 0.01)
        analysis.Sim.Critpath.requests)

let suite =
  [
    Alcotest.test_case "trace: ring overwrites oldest and counts drops" `Quick
      test_ring_buffer_overwrite;
    Alcotest.test_case "trace: span ids unique and paired" `Quick test_span_ids_unique;
    Alcotest.test_case "trace: disabled trace records nothing" `Quick test_disabled_trace_drops;
    Alcotest.test_case "metrics: ticker samples gauges into series" `Quick test_gauge_sampling;
    Alcotest.test_case "metrics: gauge series cap drops oldest" `Quick
      test_gauge_cap_drops_oldest;
    Alcotest.test_case "metrics: create-or-get by name" `Quick test_registry_create_or_get;
    Alcotest.test_case "metrics: percentile cache invalidated by record" `Quick
      test_histogram_percentile_cache;
    Alcotest.test_case "export: Perfetto JSON round-trips" `Quick test_perfetto_roundtrip;
    Alcotest.test_case "metrics: log-records gauges count retained writes" `Quick
      test_log_records_gauge;
    Alcotest.test_case "spans: every committed write covers all four phases" `Slow
      test_write_path_span_coverage;
    Alcotest.test_case "flight: pins survive ring eviction" `Quick
      test_flight_pins_survive_eviction;
    Alcotest.test_case "critpath: transit DAG connects client, leader, followers" `Slow
      test_transit_dag_connected;
    QCheck_alcotest.to_alcotest prop_critpath_conservation;
    Alcotest.test_case "timeline: failover analysis measures the outage" `Slow
      test_failover_timeline;
  ]
