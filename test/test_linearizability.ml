(* Linearizability of strong reads, checked from recorded operation
   histories — including through a leader failover. Also unit-tests the
   checker itself against hand-built violating histories. *)

open Spinnaker
module History = Workload.History

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let at_us = Sim.Sim_time.at_us

(* --- checker unit tests -------------------------------------------------- *)

let test_checker_accepts_clean_history () =
  let h = History.create () in
  History.record_write h ~key:"k" ~seq:1 ~invoked:(at_us 0) ~completed:(at_us 10) ~acked:true;
  History.record_read h ~key:"k" ~observed:(Some 1) ~invoked:(at_us 20) ~completed:(at_us 30);
  History.record_write h ~key:"k" ~seq:2 ~invoked:(at_us 40) ~completed:(at_us 50) ~acked:true;
  History.record_read h ~key:"k" ~observed:(Some 2) ~invoked:(at_us 60) ~completed:(at_us 70);
  check_int "clean" 0 (List.length (History.check h))

let test_checker_detects_phantom_value () =
  let h = History.create () in
  History.record_read h ~key:"k" ~observed:(Some 7) ~invoked:(at_us 0) ~completed:(at_us 5);
  check_bool "phantom flagged" true (History.check h <> [])

let test_checker_detects_time_travel () =
  let h = History.create () in
  History.record_write h ~key:"k" ~seq:1 ~invoked:(at_us 0) ~completed:(at_us 5) ~acked:true;
  History.record_write h ~key:"k" ~seq:2 ~invoked:(at_us 6) ~completed:(at_us 9) ~acked:true;
  History.record_read h ~key:"k" ~observed:(Some 2) ~invoked:(at_us 10) ~completed:(at_us 12);
  History.record_read h ~key:"k" ~observed:(Some 1) ~invoked:(at_us 20) ~completed:(at_us 22);
  check_bool "regression flagged" true (History.check h <> [])

let test_checker_detects_lost_ack () =
  let h = History.create () in
  History.record_write h ~key:"k" ~seq:3 ~invoked:(at_us 0) ~completed:(at_us 5) ~acked:true;
  History.record_read h ~key:"k" ~observed:None ~invoked:(at_us 10) ~completed:(at_us 12);
  check_bool "lost acked write flagged" true (History.check h <> [])

let test_checker_allows_concurrent_reads_to_disagree () =
  (* Two overlapping reads racing a write may see either value. *)
  let h = History.create () in
  History.record_write h ~key:"k" ~seq:1 ~invoked:(at_us 0) ~completed:(at_us 5) ~acked:true;
  History.record_write h ~key:"k" ~seq:2 ~invoked:(at_us 10) ~completed:(at_us 30) ~acked:true;
  History.record_read h ~key:"k" ~observed:(Some 2) ~invoked:(at_us 11) ~completed:(at_us 29);
  History.record_read h ~key:"k" ~observed:(Some 1) ~invoked:(at_us 12) ~completed:(at_us 29);
  check_int "overlapping reads may disagree" 0 (List.length (History.check h))

(* One key, 100 reads of seq 5 and then 100 later reads of seq 4: every
   later read travels back in time against every earlier one. Pair by pair
   that is 10,000 findings; the report stays at the witness cap plus one
   count per class, and the count is of violating reads. *)
let test_checker_bounds_witnesses () =
  let h = History.create () in
  History.record_write h ~key:"k" ~seq:4 ~invoked:(at_us 0) ~completed:(at_us 5) ~acked:false;
  History.record_write h ~key:"k" ~seq:5 ~invoked:(at_us 6) ~completed:(at_us 9) ~acked:false;
  for i = 0 to 99 do
    History.record_read h ~key:"k" ~observed:(Some 5) ~invoked:(at_us (10 + i))
      ~completed:(at_us (20 + i))
  done;
  for i = 0 to 99 do
    History.record_read h ~key:"k" ~observed:(Some 4) ~invoked:(at_us (200 + i))
      ~completed:(at_us (210 + i))
  done;
  let violations = History.check h in
  List.iter (fun v -> Format.printf "%a@." History.pp_violation v) violations;
  check_bool "at most 9 entries" true (List.length violations <= 9);
  check_bool "the count says 100" true
    (List.exists
       (fun (v : History.violation) -> v.explanation = "100 reads travel back in time")
       violations)

(* A read can break two rules at once: a read of seq 1 after seq 2 was both
   observed and acknowledged travels back in time and is stale. Each is a
   violation of its own, so five such reads are ten violations: 8 witnesses,
   then a count of 5 reads in each class. Three such reads are six
   violations, all shown, with no count lines. *)
let test_checker_counts_a_read_in_two_classes () =
  let check_reads n =
    let h = History.create () in
    History.record_write h ~key:"k" ~seq:1 ~invoked:(at_us 0) ~completed:(at_us 5) ~acked:true;
    History.record_write h ~key:"k" ~seq:2 ~invoked:(at_us 6) ~completed:(at_us 9) ~acked:true;
    History.record_read h ~key:"k" ~observed:(Some 2) ~invoked:(at_us 10) ~completed:(at_us 12);
    for i = 1 to n do
      History.record_read h ~key:"k" ~observed:(Some 1) ~invoked:(at_us (20 + i))
        ~completed:(at_us (30 + i))
    done;
    List.map (fun (v : History.violation) -> v.explanation) (History.check h)
  in
  let is_count e = e.[0] >= '0' && e.[0] <= '9' in
  let five = check_reads 5 in
  check_int "8 witnesses and 2 counts" 10 (List.length five);
  check_int "8 witnesses" 8 (List.length (List.filter (fun e -> not (is_count e)) five));
  check_bool "5 travel" true (List.mem "5 reads travel back in time" five);
  check_bool "5 stale" true (List.mem "5 reads after an ack observed an older seq" five);
  let three = check_reads 3 in
  check_int "all 6 violations shown" 6 (List.length three);
  check_bool "no count lines" true (not (List.exists is_count three))

(* --- end-to-end: strong reads stay linearizable through failover ---------- *)

let test_strong_reads_linearizable_through_failover () =
  let engine = Sim.Engine.create ~seed:33 () in
  let config =
    {
      Config.default with
      Config.nodes = 5;
      disk = Sim.Disk_model.Ssd;
      session_timeout = Sim.Sim_time.ms 500;
      commit_period = Sim.Sim_time.ms 200;
    }
  in
  let cluster = Cluster.create engine config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let key = Partition.key_of_int (Cluster.partition cluster) 7 in
  let history = History.create () in
  (* One serial writer... *)
  let writer = Cluster.new_client cluster in
  let seq = ref 0 in
  let rec write_loop () =
    incr seq;
    let this = !seq in
    let invoked = Sim.Engine.now engine in
    Client.put writer key "c" ~value:(string_of_int this) (fun result ->
        History.record_write history ~key ~seq:this ~invoked
          ~completed:(Sim.Engine.now engine)
          ~acked:(Result.is_ok result);
        ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 40) write_loop))
  in
  write_loop ();
  (* ...three concurrent strong readers... *)
  let spawn_reader () =
    let client = Cluster.new_client cluster in
    let rec read_loop () =
      let invoked = Sim.Engine.now engine in
      Client.get client key "c" (fun result ->
          (match result with
          | Ok Client.{ value; _ } ->
            History.record_read history ~key
              ~observed:(Option.map int_of_string value)
              ~invoked
              ~completed:(Sim.Engine.now engine)
          | Error _ -> ());
          ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 15) read_loop))
    in
    read_loop ()
  in
  for _ = 1 to 3 do
    spawn_reader ()
  done;
  (* ...and a leader failover in the middle. *)
  ignore
    (Sim.Engine.schedule engine ~after:(Sim.Sim_time.sec 2) (fun () ->
         let range = Partition.route (Cluster.partition cluster) key in
         match Cluster.leader_of cluster ~range with
         | Some l -> Cluster.crash_node cluster l
         | None -> ()));
  Sim.Engine.run_for engine (Sim.Sim_time.sec 8);
  let violations = History.check history in
  List.iter (fun v -> Format.printf "violation: %a@." History.pp_violation v) violations;
  check_int "no linearizability violations" 0 (List.length violations);
  check_bool "history is substantial" true
    (History.reads history > 300 && History.writes history > 50)

let suite =
  [
    Alcotest.test_case "checker: clean history" `Quick test_checker_accepts_clean_history;
    Alcotest.test_case "checker: phantom value" `Quick test_checker_detects_phantom_value;
    Alcotest.test_case "checker: time travel" `Quick test_checker_detects_time_travel;
    Alcotest.test_case "checker: lost acked write" `Quick test_checker_detects_lost_ack;
    Alcotest.test_case "checker: concurrent reads may disagree" `Quick
      test_checker_allows_concurrent_reads_to_disagree;
    Alcotest.test_case "checker: witnesses capped, violations counted" `Quick
      test_checker_bounds_witnesses;
    Alcotest.test_case "checker: a read in two classes" `Quick
      test_checker_counts_a_read_in_two_classes;
    Alcotest.test_case "strong reads linearizable through failover" `Slow
      test_strong_reads_linearizable_through_failover;
  ]
