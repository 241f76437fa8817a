(* Tests for the discrete-event simulation kernel. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- event heap ------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Sim.Event_heap.create () in
  ignore (Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 30) "c");
  ignore (Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 10) "a");
  ignore (Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 20) "b");
  let pop () = match Sim.Event_heap.pop h with Some (_, v) -> v | None -> "-" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Sim.Event_heap.create () in
  let t = Sim.Sim_time.at_us 5 in
  for i = 0 to 9 do
    ignore (Sim.Event_heap.push h ~time:t i)
  done;
  let order = List.init 10 (fun _ -> match Sim.Event_heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order on tie" (List.init 10 Fun.id) order

let test_heap_cancel () =
  let h = Sim.Event_heap.create () in
  let _a = Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 1) "a" in
  let b = Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 2) "b" in
  let _c = Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 3) "c" in
  Sim.Event_heap.cancel h b;
  check_int "live size" 2 (Sim.Event_heap.size h);
  let first = Sim.Event_heap.pop h in
  let second = Sim.Event_heap.pop h in
  let third = Sim.Event_heap.pop h in
  Alcotest.(check (list (option string)))
    "b skipped"
    [ Some "a"; Some "c"; None ]
    (List.map (Option.map snd) [ first; second; third ])

let test_heap_cancel_after_pop_noop () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us 1) "a" in
  ignore (Sim.Event_heap.pop h);
  Sim.Event_heap.cancel h a;
  check_int "size stays zero" 0 (Sim.Event_heap.size h)

(* The client timeout pattern: every request pushes a timer and cancels it
   moments later. Without compaction the backing array grows with the number
   of requests ever issued; with it the array tracks the live count. *)
let test_heap_compaction_bounds_backing_array () =
  let h = Sim.Event_heap.create () in
  let handles =
    Array.init 100_000 (fun i -> Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us i) i)
  in
  Array.iteri (fun i handle -> if i mod 100 <> 0 then Sim.Event_heap.cancel h handle) handles;
  check_int "live" 1000 (Sim.Event_heap.size h);
  Alcotest.(check bool)
    "backing array is O(live)" true
    (Sim.Event_heap.backing_len h <= 2 * Sim.Event_heap.size h);
  (* Dead entries must still be invisible to pop, in (time, seq) order. *)
  let popped = ref [] in
  let rec drain () =
    match Sim.Event_heap.pop h with
    | None -> ()
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
  in
  drain ();
  Alcotest.(check (list int))
    "survivors in order"
    (List.init 1000 (fun i -> i * 100))
    (List.rev !popped)

(* Model-based check: a heap driven by a random push/cancel/pop schedule must
   agree with a naive sorted-list model on every pop, keep [size] equal to the
   model's cardinality, and keep the backing array O(live) at every cancel. *)
type heap_op = HPush of int | HCancel of int | HPop

let arb_heap_ops =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun t -> HPush t) (int_range 0 500));
          (4, map (fun i -> HCancel i) (int_range 0 5000));
          (3, return HPop);
        ])
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | HPush t -> Printf.sprintf "push %d" t
             | HCancel i -> Printf.sprintf "cancel %d" i
             | HPop -> "pop")
           l))
    QCheck.Gen.(list_size (int_range 1 400) op_gen)

let prop_event_heap_matches_model =
  QCheck.Test.make ~name:"event heap: model equivalence (order, cancel, O(live) backing)"
    ~count:300 arb_heap_ops (fun ops ->
      let h = Sim.Event_heap.create () in
      let handles = Hashtbl.create 64 in
      (* seq -> time for entries the model still considers pending *)
      let model = Hashtbl.create 64 in
      let n_push = ref 0 in
      let model_min () =
        Hashtbl.fold
          (fun seq time acc ->
            match acc with
            | Some (t', s') when t' < time || (t' = time && s' < seq) -> acc
            | _ -> Some (time, seq))
          model None
      in
      let pop_agrees () =
        match (Sim.Event_heap.pop h, model_min ()) with
        | None, None -> true
        | Some (time, seq), Some (mt, ms) ->
          Hashtbl.remove model ms;
          seq = ms && time = Sim.Sim_time.at_us mt
        | Some _, None | None, Some _ -> false
      in
      let step op =
        (match op with
        | HPush t ->
          let handle = Sim.Event_heap.push h ~time:(Sim.Sim_time.at_us t) !n_push in
          Hashtbl.replace handles !n_push handle;
          Hashtbl.replace model !n_push t;
          incr n_push;
          true
        | HCancel _ when !n_push = 0 -> true
        | HCancel i ->
          let i = i mod !n_push in
          (* Cancel is idempotent and a no-op after pop, in heap and model. *)
          let handle = Hashtbl.find handles i in
          let effective = not (Sim.Event_heap.is_cancelled handle) in
          Sim.Event_heap.cancel h handle;
          Hashtbl.remove model i;
          (* An effective cancel re-establishes the compaction invariant;
             a no-op cancel (already popped/cancelled) need not. *)
          (not effective)
          || Sim.Event_heap.backing_len h <= Stdlib.max 64 (2 * Sim.Event_heap.size h)
        | HPop -> pop_agrees ())
        && Sim.Event_heap.size h = Hashtbl.length model
      in
      List.for_all step ops
      &&
      (* Drain: remaining live entries must come out in model order. *)
      let rec drain () = if Hashtbl.length model = 0 then pop_agrees () else pop_agrees () && drain () in
      drain ())

(* --- engine ----------------------------------------------------------- *)

let test_engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 3) (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 2) (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref Sim.Sim_time.zero in
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 7) (fun () -> seen := Sim.Engine.now e));
  Sim.Engine.run e;
  check_int "clock at event" 7_000 (Sim.Sim_time.time_to_us !seen)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  ignore
    (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 1) (fun () ->
         incr hits;
         ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 1) (fun () -> incr hits))));
  Sim.Engine.run e;
  check_int "both ran" 2 !hits;
  check_int "final clock" 2_000 (Sim.Sim_time.time_to_us (Sim.Engine.now e))

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let hit = ref false in
  let timer = Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 1) (fun () -> hit := true) in
  Sim.Engine.cancel e timer;
  Sim.Engine.run e;
  check_bool "cancelled" false !hit

let test_run_until_stops_and_sets_clock () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 5) (fun () -> incr hits));
  ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 15) (fun () -> incr hits));
  Sim.Engine.run_until e (Sim.Sim_time.at_us 10_000);
  check_int "only first ran" 1 !hits;
  check_int "clock at until" 10_000 (Sim.Sim_time.time_to_us (Sim.Engine.now e));
  Sim.Engine.run e;
  check_int "second ran later" 2 !hits

let test_determinism () =
  let run () =
    let e = Sim.Engine.create ~seed:7 () in
    let rng = Sim.Rng.split (Sim.Engine.rng e) in
    let acc = ref [] in
    for _ = 1 to 5 do
      let d = Sim.Rng.int rng 1000 in
      ignore (Sim.Engine.schedule e ~after:(Sim.Sim_time.us d) (fun () -> acc := d :: !acc))
    done;
    Sim.Engine.run e;
    !acc
  in
  Alcotest.(check (list int)) "same seed, same schedule" (run ()) (run ())

(* --- resource ---------------------------------------------------------- *)

let test_resource_fifo_queueing () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e () in
  let finished = ref [] in
  for i = 1 to 3 do
    Sim.Resource.submit r ~service:(Sim.Sim_time.ms 10) (fun () ->
        finished := (i, Sim.Sim_time.time_to_us (Sim.Engine.now e)) :: !finished)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "serialised completions"
    [ (1, 10_000); (2, 20_000); (3, 30_000) ]
    (List.rev !finished)

let test_resource_multi_server () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:2 () in
  let finished = ref [] in
  for i = 1 to 4 do
    Sim.Resource.submit r ~service:(Sim.Sim_time.ms 10) (fun () ->
        finished := (i, Sim.Sim_time.time_to_us (Sim.Engine.now e)) :: !finished)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "two at a time"
    [ (1, 10_000); (2, 10_000); (3, 20_000); (4, 20_000) ]
    (List.rev !finished)

let test_resource_idle_then_busy () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e () in
  let at = ref 0 in
  ignore
    (Sim.Engine.schedule e ~after:(Sim.Sim_time.ms 50) (fun () ->
         Sim.Resource.submit r ~service:(Sim.Sim_time.ms 5) (fun () ->
             at := Sim.Sim_time.time_to_us (Sim.Engine.now e))));
  Sim.Engine.run e;
  check_int "starts when submitted, not at zero" 55_000 !at

(* --- network ------------------------------------------------------------ *)

let make_net () =
  let e = Sim.Engine.create () in
  let net = Sim.Network.create e ~latency:(Sim.Distribution.Constant 100.0) () in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref None in
  Sim.Network.register net ~node:1 (fun _ -> ());
  Sim.Network.register net ~node:2 (fun env -> got := Some env.Sim.Network.payload);
  Sim.Network.send net ~src:1 ~dst:2 "hello";
  Sim.Engine.run e;
  Alcotest.(check (option string)) "delivered" (Some "hello") !got

let test_network_down_node_drops () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net ~node:1 (fun _ -> ());
  Sim.Network.register net ~node:2 (fun _ -> incr got);
  Sim.Network.set_up net 2 false;
  Sim.Network.send net ~src:1 ~dst:2 "x";
  Sim.Engine.run e;
  check_int "dropped" 0 !got;
  check_int "counted as dropped" 1 (Sim.Network.stats net).Sim.Metrics.net_dropped_down

(* Every message's fate is counted where it happens, so the identity
   sent + duplicated = delivered + dropped + in flight holds at every instant,
   including mid-flight and after each kind of fault. *)
let test_network_accounting_identity () =
  let e, net = make_net () in
  List.iter (fun n -> Sim.Network.register net ~node:n (fun _ -> ())) [ 1; 2; 3 ];
  let balanced what =
    let s = Sim.Network.stats net in
    let dropped =
      s.Sim.Metrics.net_dropped_down + s.net_dropped_partitioned + s.net_dropped_lost
    in
    check_int what (s.net_sent + s.net_duplicated) (s.net_delivered + dropped + s.net_in_flight);
    s
  in
  let burst n = for _ = 1 to n do Sim.Network.send net ~src:1 ~dst:2 "m" done in
  (* Plain deliveries, checked while still in flight and after. *)
  burst 5;
  check_int "in flight before running" 5 (balanced "in flight").Sim.Metrics.net_in_flight;
  Sim.Engine.run e;
  check_int "all delivered" 5 (balanced "delivered").Sim.Metrics.net_delivered;
  (* A downed sender drops at send time. *)
  Sim.Network.set_up net 1 false;
  burst 3;
  Sim.Network.set_up net 1 true;
  check_int "down sender" 3 (balanced "down sender").Sim.Metrics.net_dropped_down;
  (* A partition drops at delivery time. *)
  Sim.Network.partition net [ 1 ] [ 2 ];
  burst 4;
  ignore (balanced "partitioned, in flight");
  Sim.Engine.run e;
  Sim.Network.heal net;
  check_int "partitioned" 4 (balanced "partitioned").Sim.Metrics.net_dropped_partitioned;
  (* A lossy, duplicating link: some copies lost at send, some doubled. *)
  Sim.Network.set_link_faults net ~src:1 ~dst:2 ~loss:0.3 ~duplicate:0.3 ();
  burst 200;
  ignore (balanced "lossy, in flight");
  Sim.Engine.run e;
  Sim.Network.clear_link_faults net ~src:1 ~dst:2;
  let s = balanced "lossy" in
  check_bool "some lost" true (s.Sim.Metrics.net_dropped_lost > 0);
  check_bool "some duplicated" true (s.net_duplicated > 0);
  (* A receiver that crashes while messages are in flight to it. *)
  for _ = 1 to 6 do Sim.Network.send net ~src:3 ~dst:2 "m" done;
  let before = s.Sim.Metrics.net_dropped_down in
  Sim.Network.set_up net 2 false;
  Sim.Engine.run e;
  let s = balanced "crashed receiver" in
  check_int "crashed receiver" 6 (s.Sim.Metrics.net_dropped_down - before);
  check_int "nothing left in flight" 0 s.net_in_flight

let test_network_partition_and_heal () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net ~node:1 (fun _ -> ());
  Sim.Network.register net ~node:2 (fun _ -> incr got);
  Sim.Network.partition net [ 1 ] [ 2 ];
  Sim.Network.send net ~src:1 ~dst:2 "x";
  Sim.Engine.run e;
  check_int "partitioned" 0 !got;
  Sim.Network.heal net;
  Sim.Network.send net ~src:1 ~dst:2 "y";
  Sim.Engine.run e;
  check_int "healed" 1 !got

let test_network_in_order_per_pair () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.register net ~node:1 (fun _ -> ());
  Sim.Network.register net ~node:2 (fun env -> got := env.Sim.Network.payload :: !got);
  for i = 1 to 20 do
    Sim.Network.send net ~src:1 ~dst:2 ~size:128 (string_of_int i)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "FIFO per sender-receiver pair"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

let test_network_transfer_time_scales_with_size () =
  let e = Sim.Engine.create () in
  let net = Sim.Network.create e ~latency:(Sim.Distribution.Constant 0.0) ~bandwidth_bps:8_000_000 () in
  (* 8 Mbit/s => 1 byte/us *)
  let at = ref 0 in
  Sim.Network.register net ~node:1 (fun _ -> ());
  Sim.Network.register net ~node:2 (fun _ -> at := Sim.Sim_time.time_to_us (Sim.Engine.now e));
  Sim.Network.send net ~src:1 ~dst:2 ~size:4096 "big";
  Sim.Engine.run e;
  check_int "4096 bytes at 1B/us" 4096 !at

(* --- metrics ------------------------------------------------------------ *)

let test_histogram_stats () =
  let h = Sim.Metrics.Histogram.create () in
  List.iter (Sim.Metrics.Histogram.record h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Sim.Metrics.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Sim.Metrics.Histogram.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 5.0 (Sim.Metrics.Histogram.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Metrics.Histogram.min h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Sim.Metrics.Histogram.max h)

let test_histogram_interleaved_record_and_query () =
  let h = Sim.Metrics.Histogram.create () in
  Sim.Metrics.Histogram.record h 10.0;
  ignore (Sim.Metrics.Histogram.percentile h 0.5);
  Sim.Metrics.Histogram.record h 1.0;
  (* Sorting for the earlier percentile must not corrupt later inserts. *)
  Alcotest.(check (float 1e-9)) "min after re-sort" 1.0 (Sim.Metrics.Histogram.min h);
  check_int "count" 2 (Sim.Metrics.Histogram.count h)

(* --- distributions / rng ------------------------------------------------ *)

let test_rng_determinism () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 1 in
  let xs = List.init 10 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_split_independent () =
  let a = Sim.Rng.create 1 in
  let b = Sim.Rng.split a in
  let xs = List.init 10 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Sim.Rng.int b 1000) in
  check_bool "streams differ" true (xs <> ys)

let prop_distribution_nonnegative =
  QCheck.Test.make ~name:"distribution samples are nonnegative" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 5))
    (fun (seed, which) ->
      let rng = Sim.Rng.create seed in
      let d =
        match which with
        | 0 -> Sim.Distribution.Constant 5.0
        | 1 -> Sim.Distribution.Uniform (0.0, 10.0)
        | 2 -> Sim.Distribution.Exponential 3.0
        | 3 -> Sim.Distribution.Shifted_exponential { base = 1.0; mean_extra = 2.0 }
        | 4 -> Sim.Distribution.Normal { mean = 1.0; stddev = 5.0 }
        | _ -> Sim.Distribution.Mixture [ (1.0, Constant 1.0); (2.0, Exponential 4.0) ]
      in
      Sim.Distribution.sample d rng >= 0.0)

let prop_exponential_mean =
  QCheck.Test.make ~name:"exponential sample mean approaches parameter" ~count:20
    (QCheck.int_bound 100_000) (fun seed ->
      let rng = Sim.Rng.create seed in
      let n = 5000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Sim.Distribution.sample (Sim.Distribution.Exponential 10.0) rng
      done;
      let mean = !sum /. float_of_int n in
      mean > 8.0 && mean < 12.0)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

(* --- JSON parser ------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Sim.Json.Obj
      [
        ("null", Sim.Json.Null);
        ("flags", Sim.Json.List [ Sim.Json.Bool true; Sim.Json.Bool false ]);
        ("int", Sim.Json.Int (-42));
        ("float", Sim.Json.Float 2.5);
        ("text", Sim.Json.String "line\nquote\" tab\t back\\slash");
        ("nested", Sim.Json.Obj [ ("xs", Sim.Json.List [ Sim.Json.Int 1; Sim.Json.Int 2 ]) ]);
        ("empty_list", Sim.Json.List []);
        ("empty_obj", Sim.Json.Obj []);
      ]
  in
  match Sim.Json.of_string (Sim.Json.to_string doc) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok parsed -> check_bool "identical after round-trip" true (parsed = doc)

let test_json_parses_plain_syntax () =
  (match Sim.Json.of_string {| {"a": [1, 2.5, "xA", true, null]} |} with
  | Ok (Sim.Json.Obj [ ("a", Sim.Json.List l) ]) ->
    check_bool "values" true
      (l = [ Sim.Json.Int 1; Sim.Json.Float 2.5; Sim.Json.String "xA"; Sim.Json.Bool true;
             Sim.Json.Null ])
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* exponents parse as floats, bare ints as ints *)
  (match Sim.Json.of_string "[1e3, 10]" with
  | Ok (Sim.Json.List [ Sim.Json.Float f; Sim.Json.Int 10 ]) ->
    Alcotest.(check (float 0.001)) "exponent" 1000.0 f
  | _ -> Alcotest.fail "number discrimination")

let test_json_rejects_garbage () =
  let bad s =
    match Sim.Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "{} trailing"

let test_json_member () =
  let doc = Sim.Json.Obj [ ("a", Sim.Json.Int 1) ] in
  check_bool "present" true (Sim.Json.member "a" doc = Some (Sim.Json.Int 1));
  check_bool "absent" true (Sim.Json.member "b" doc = None);
  check_bool "non-object" true (Sim.Json.member "a" (Sim.Json.Int 3) = None)

let suite =
  [
    Alcotest.test_case "heap: time ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap: FIFO on equal times" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap: cancellation" `Quick test_heap_cancel;
    Alcotest.test_case "heap: cancel after pop is noop" `Quick test_heap_cancel_after_pop_noop;
    Alcotest.test_case "heap: compaction bounds backing array" `Quick
      test_heap_compaction_bounds_backing_array;
    QCheck_alcotest.to_alcotest prop_event_heap_matches_model;
    Alcotest.test_case "engine: time order" `Quick test_engine_runs_in_time_order;
    Alcotest.test_case "engine: clock advances" `Quick test_engine_clock_advances;
    Alcotest.test_case "engine: nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: run_until semantics" `Quick test_run_until_stops_and_sets_clock;
    Alcotest.test_case "engine: determinism under seed" `Quick test_determinism;
    Alcotest.test_case "resource: FIFO queueing" `Quick test_resource_fifo_queueing;
    Alcotest.test_case "resource: multi-server" `Quick test_resource_multi_server;
    Alcotest.test_case "resource: idle then busy" `Quick test_resource_idle_then_busy;
    Alcotest.test_case "network: delivery" `Quick test_network_delivery;
    Alcotest.test_case "network: down node drops" `Quick test_network_down_node_drops;
    Alcotest.test_case "network: partition & heal" `Quick test_network_partition_and_heal;
    Alcotest.test_case "network: every message's fate is counted" `Quick
      test_network_accounting_identity;
    Alcotest.test_case "network: in-order per pair" `Quick test_network_in_order_per_pair;
    Alcotest.test_case "network: size-scaled transfer" `Quick test_network_transfer_time_scales_with_size;
    Alcotest.test_case "metrics: histogram stats" `Quick test_histogram_stats;
    Alcotest.test_case "metrics: interleaved record/query" `Quick test_histogram_interleaved_record_and_query;
    Alcotest.test_case "json: printer/parser round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: parses plain syntax" `Quick test_json_parses_plain_syntax;
    Alcotest.test_case "json: rejects malformed input" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json: member lookup" `Quick test_json_member;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest prop_distribution_nonnegative;
    QCheck_alcotest.to_alcotest prop_exponential_mean;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
  ]
