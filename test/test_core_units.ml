(* Unit tests for the core library's pure components: partitioning, the
   commit queue, and protocol messages. *)

open Spinnaker
module Lsn = Storage.Lsn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn e s = Lsn.make ~epoch:e ~seq:s

(* --- partition --------------------------------------------------------------- *)

let part ?(nodes = 10) ?(replication = 3) ?(key_space = 100_000) () =
  Partition.create ~nodes ~replication ~key_space

let test_partition_shape () =
  let p = part () in
  check_int "one range per node" 10 (Partition.ranges p);
  check_int "replication" 3 (Partition.replication p)

let test_partition_chained_declustering () =
  let p = part () in
  Alcotest.(check (list int)) "cohort 0" [ 0; 1; 2 ] (Partition.cohort p ~range:0);
  Alcotest.(check (list int)) "cohort 8 wraps" [ 8; 9; 0 ] (Partition.cohort p ~range:8);
  Alcotest.(check (list int)) "cohort 9 wraps" [ 9; 0; 1 ] (Partition.cohort p ~range:9)

let test_partition_node_ranges_inverse () =
  let p = part () in
  for node = 0 to 9 do
    let ranges = Partition.ranges_of_node p ~node in
    check_int "member of 3 cohorts" 3 (List.length ranges);
    List.iter
      (fun r ->
        check_bool "cohort contains node" true (List.mem node (Partition.cohort p ~range:r)))
      ranges
  done

let test_partition_bounds_cover_space () =
  let p = part () in
  let lo0, _ = Partition.range_bounds p ~range:0 in
  let _, hi9 = Partition.range_bounds p ~range:9 in
  Alcotest.(check string) "starts at 0" (Partition.key_of_int p 0) lo0;
  Alcotest.(check string) "ends at key_space" "100000" hi9

let prop_route_within_cohorted_range =
  QCheck.Test.make ~name:"partition: every key routes to a valid range" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let r = Partition.route p (Partition.key_of_int p k) in
      r >= 0 && r < 10 && List.length (Partition.cohort p ~range:r) = 3)

let prop_route_respects_bounds =
  QCheck.Test.make ~name:"partition: routed range's bounds contain the key" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let key = Partition.key_of_int p k in
      let r = Partition.route p key in
      let lo, hi = Partition.range_bounds p ~range:r in
      String.compare lo key <= 0 && String.compare key hi < 0)

let prop_key_encoding_order_preserving =
  QCheck.Test.make ~name:"partition: key encoding preserves numeric order" ~count:300
    QCheck.(pair (int_bound 99_999) (int_bound 99_999))
    (fun (a, b) ->
      let p = part () in
      compare a b = compare (Partition.key_of_int p a) (Partition.key_of_int p b))

(* --- commit queue -------------------------------------------------------------- *)

let add q ~l ?reply () =
  Commit_queue.add q ~lsn:l
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "v"; version = l.Lsn.seq })
    ~timestamp:0 ?reply ()

let test_queue_commit_order_and_quorum () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  add q ~l:(lsn 1 3) ();
  (* Nothing commits unforced. *)
  Commit_queue.add_ack q ~from:7 ~upto:(lsn 1 3);
  check_int "unforced" 0 (List.length (Commit_queue.pop_committable q ~acks_needed:1));
  Commit_queue.mark_forced_upto q (lsn 1 3);
  let committed = Commit_queue.pop_committable q ~acks_needed:1 in
  check_int "all commit in order" 3 (List.length committed);
  check_bool "ascending" true
    (List.for_all2
       (fun (a : Commit_queue.entry) s -> Lsn.equal a.lsn (lsn 1 s))
       committed [ 1; 2; 3 ])

let test_queue_commit_stops_at_gap () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q (lsn 1 2);
  (* A cumulative ack covering both entries commits both. *)
  Commit_queue.add_ack q ~from:9 ~upto:(lsn 1 2);
  check_int "ack covers both" 2 (List.length (Commit_queue.pop_committable q ~acks_needed:1));
  let q2 = Commit_queue.create () in
  add q2 ~l:(lsn 1 1) ();
  add q2 ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q2 (lsn 1 2);
  (* Only the second entry is acked: commit order must stall at entry 1. *)
  List.iter
    (fun (e : Commit_queue.entry) -> if Lsn.equal e.lsn (lsn 1 2) then e.ackers <- [ 5 ])
    (Commit_queue.to_list q2);
  check_int "gap blocks commit" 0 (List.length (Commit_queue.pop_committable q2 ~acks_needed:1));
  check_int "entries retained" 2 (Commit_queue.length q2)

let test_queue_duplicate_acks_counted_once () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  Commit_queue.mark_forced_upto q (lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  check_int "one acker twice is not quorum of 2" 0
    (List.length (Commit_queue.pop_committable q ~acks_needed:2));
  Commit_queue.add_ack q ~from:4 ~upto:(lsn 1 1);
  check_int "two distinct ackers" 1 (List.length (Commit_queue.pop_committable q ~acks_needed:2))

let test_queue_pop_upto () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let popped = Commit_queue.pop_upto q (lsn 1 2) in
  check_int "popped prefix" 2 (List.length popped);
  check_int "rest stays" 2 (Commit_queue.length q)

let test_queue_drop_above () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let dropped = Commit_queue.drop_above q (lsn 1 2) in
  check_int "dropped suffix" 2 (List.length dropped);
  check_int "prefix stays" 2 (Commit_queue.length q)

let test_queue_latest_version_overlay () =
  let q = Commit_queue.create () in
  Commit_queue.add q ~lsn:(lsn 1 1)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "a"; version = 5 })
    ~timestamp:0 ();
  Commit_queue.add q ~lsn:(lsn 1 2)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "b"; version = 6 })
    ~timestamp:0 ();
  Alcotest.(check (option int)) "newest pending version" (Some 6)
    (Commit_queue.latest_version_for q ("k", "c"));
  Alcotest.(check (option int)) "absent coord" None
    (Commit_queue.latest_version_for q ("other", "c"))

let prop_queue_commits_exactly_once =
  QCheck.Test.make ~name:"commit queue: every entry commits exactly once" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Commit_queue.create () in
      for s = 1 to n do
        add q ~l:(lsn 1 s) ()
      done;
      Commit_queue.mark_forced_upto q (lsn 1 n);
      Commit_queue.add_ack q ~from:1 ~upto:(lsn 1 n);
      let first = Commit_queue.pop_committable q ~acks_needed:1 in
      let second = Commit_queue.pop_committable q ~acks_needed:1 in
      List.length first = n && second = [] && Commit_queue.is_empty q)

(* Differential check of the memoized follower frontier: random programs over
   the whole queue API, with [contiguous_forced_upto] compared after every
   step against a naive walk of [to_list]. LSNs span two epochs over a small
   seq range, so chains, holes, re-adds at or below the frontier and
   replacements of forced entries all occur. *)
type queue_cmd =
  | Add of Lsn.t
  | Force of Lsn.t
  | Force_upto of Lsn.t
  | Ack of int * Lsn.t
  | Pop_contiguous of Lsn.t
  | Pop_upto of Lsn.t
  | Drop_above of Lsn.t
  | Set_from of Lsn.t
  | Ask of Lsn.t

let pp_queue_cmd = function
  | Add l -> "add " ^ Lsn.to_string l
  | Force l -> "force " ^ Lsn.to_string l
  | Force_upto l -> "force_upto " ^ Lsn.to_string l
  | Ack (f, l) -> Printf.sprintf "ack %d %s" f (Lsn.to_string l)
  | Pop_contiguous l -> "pop_contiguous " ^ Lsn.to_string l
  | Pop_upto l -> "pop_upto " ^ Lsn.to_string l
  | Drop_above l -> "drop_above " ^ Lsn.to_string l
  | Set_from l -> "set_from " ^ Lsn.to_string l
  | Ask l -> "ask " ^ Lsn.to_string l

let arb_queue_program =
  let open QCheck.Gen in
  let l = map2 (fun e s -> lsn e s) (int_range 1 2) (int_range 0 12) in
  let cmd =
    frequency
      [
        (6, map (fun l -> Add l) l);
        (5, map (fun l -> Force l) l);
        (1, map (fun l -> Force_upto l) l);
        (1, map2 (fun f l -> Ack (f, l)) (int_range 1 2) l);
        (1, map (fun l -> Pop_contiguous l) l);
        (1, map (fun l -> Pop_upto l) l);
        (1, map (fun l -> Drop_above l) l);
        (1, map (fun l -> Set_from l) (oneof [ return Lsn.zero; l ]));
        (2, map (fun l -> Ask l) (oneof [ return Lsn.zero; l ]));
      ]
  in
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map pp_queue_cmd cmds))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 60) cmd)

let naive_frontier q ~from =
  let rec go prev best = function
    | (e : Commit_queue.entry) :: rest when e.lsn.Lsn.seq = prev + 1 && e.forced ->
      go e.lsn.Lsn.seq (Some e.lsn) rest
    | _ -> best
  in
  go from.Lsn.seq None (Commit_queue.to_list q)

let prop_queue_frontier_matches_naive_walk =
  QCheck.Test.make ~name:"commit queue: memoized frontier matches a naive walk" ~count:500
    arb_queue_program (fun cmds ->
      let q = Commit_queue.create () in
      let from = ref Lsn.zero in
      let agrees from =
        Option.equal Lsn.equal (Commit_queue.contiguous_forced_upto q ~from)
          (naive_frontier q ~from)
      in
      List.for_all
        (fun cmd ->
          let step_ok =
            match cmd with
            | Add l -> add q ~l (); true
            | Force l -> Commit_queue.mark_forced q l; true
            | Force_upto l -> Commit_queue.mark_forced_upto q l; true
            | Ack (f, l) -> Commit_queue.add_ack q ~from:f ~upto:l; true
            | Pop_contiguous l ->
              List.iter
                (fun (e : Commit_queue.entry) -> from := Lsn.max !from e.lsn)
                (Commit_queue.pop_contiguous q ~from:!from ~upto:l);
              true
            | Pop_upto l -> ignore (Commit_queue.pop_upto q l); true
            | Drop_above l -> ignore (Commit_queue.drop_above q l); true
            | Set_from l -> from := l; true
            | Ask l -> agrees l
          in
          (* Asked twice: the second ask resumes from the first's memo. *)
          step_ok && agrees !from && agrees !from)
        cmds)

(* The logical-truncation scan's merge walk against the quadratic filter it
   replaced, on ascending LSN lists. *)
let prop_lsn_diff_sorted =
  let arb_lsns =
    QCheck.(
      map
        (fun ps -> List.sort_uniq Lsn.compare (List.map (fun (e, s) -> lsn e s) ps))
        (small_list (pair (int_range 1 3) (int_range 0 20))))
  in
  QCheck.Test.make ~name:"lsn: sorted difference equals filter" ~count:500
    (QCheck.pair arb_lsns arb_lsns) (fun (a, b) ->
      List.equal Lsn.equal (Lsn.diff_sorted a b)
        (List.filter (fun l -> not (List.exists (Lsn.equal l) b)) a))

(* --- messages -------------------------------------------------------------------- *)

let test_message_classification () =
  check_bool "get is read" false
    (Message.is_write (Message.Get { key = "k"; col = "c"; consistent = true; token = Lsn.zero }));
  check_bool "put is write" true (Message.is_write (Message.Put { key = "k"; col = "c"; value = "v" }));
  check_bool "cond delete is write" true
    (Message.is_write (Message.Conditional_delete { key = "k"; col = "c"; expected = 1 }))

let test_message_new_ops_classified () =
  check_bool "scan is read" false
    (Message.is_write
       (Message.Scan
          { start_key = "a"; end_key = "b"; limit = 10; consistent = true; token = Lsn.zero }));
  check_bool "txn is write" true (Message.is_write (Message.Txn_put { rows = [ ("k", "c", "v") ] }));
  Alcotest.(check string)
    "txn routes by first key" "k"
    (Message.key_of_op (Message.Txn_put { rows = [ ("k", "c", "v"); ("k2", "c", "v") ] }));
  Alcotest.(check string)
    "scan routes by start key" "s"
    (Message.key_of_op
       (Message.Scan
          { start_key = "s"; end_key = "t"; limit = 1; consistent = false; token = Lsn.zero }))

let test_batch_op_helpers () =
  let batch =
    Storage.Log_record.Batch
      [
        Storage.Log_record.Put { key = "a"; col = "c"; value = "1"; version = 1 };
        Storage.Log_record.Delete { key = "b"; col = "c"; version = 2 };
      ]
  in
  check_int "flatten" 2 (List.length (Storage.Log_record.flatten batch));
  Alcotest.(check (pair string string)) "coord is first" ("a", "c") (Storage.Log_record.op_coord batch);
  let cells = Storage.Log_record.cells_of_write batch ~lsn:(lsn 1 9) ~timestamp:7 in
  check_int "two cells" 2 (List.length cells);
  check_bool "delete is tombstone" true
    (match cells with [ _; (_, cell) ] -> Storage.Row.is_tombstone cell | _ -> false);
  check_bool "shared lsn" true
    (List.for_all (fun (_, (c : Storage.Row.cell)) -> Lsn.equal c.lsn (lsn 1 9)) cells)

let test_message_sizes_scale () =
  let request value =
    Message.Request
      { client = 1; request_id = 1; floor = 1; op = Message.Put { key = "k"; col = "c"; value } }
  in
  let small = Message.size (request "x") in
  let big = Message.size (request (String.make 4096 'x')) in
  check_bool "4KB put is ~4KB bigger" true (big - small > 4000)

(* A Propose's size as it was computed when transactional records were
   sized by building their cells: 8 bytes plus the key, column and value
   bytes of every cell the record installs. *)
let size_of_write_via_cells op =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Storage.Log_record.Put { key; col; value; _ } ->
        String.length key + String.length col + String.length value
      | Storage.Log_record.Delete { key; col; _ } -> String.length key + String.length col
      | Storage.Log_record.Txn_prepare _ | Storage.Log_record.Txn_decision _
      | Storage.Log_record.Txn_resolve _ | Storage.Log_record.Install_cell _ ->
        List.fold_left
          (fun a ((key, col), (cell : Storage.Row.cell)) ->
            a + String.length key + String.length col
            + (match cell.value with Some v -> String.length v | None -> 0))
          8
          (Storage.Log_record.cells_of_write op ~lsn:Lsn.zero ~timestamp:0)
      | Storage.Log_record.Batch _ | Storage.Log_record.Cohort_change _
      | Storage.Log_record.Split _ ->
        0)
    24
    (Storage.Log_record.flatten op)

let log_op_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 5) in
  let fence = map2 (fun epoch seq -> Lsn.make ~epoch ~seq) nat nat in
  let prim =
    oneof
      [
        map3
          (fun key col value -> Storage.Log_record.Put { key; col; value; version = 1 })
          str str str;
        map2 (fun key col -> Storage.Log_record.Delete { key; col; version = 1 }) str str;
      ]
  in
  oneof
    [
      prim;
      map (fun ops -> Storage.Log_record.Batch ops) (list_size (int_bound 4) prim);
      map2
        (fun (txn, anchor, fence) writes ->
          Storage.Log_record.Txn_prepare { txn; anchor; fence; writes })
        (triple str str fence)
        (list_size (int_bound 4) (triple str str (opt str)));
      map3
        (fun (txn, anchor) commit ts -> Storage.Log_record.Txn_decision { txn; anchor; commit; ts })
        (pair str str) bool int;
      map3
        (fun txn commit writes -> Storage.Log_record.Txn_resolve { txn; commit; ts = 7; writes })
        str bool
        (list_size (int_bound 4) (quad str str (opt str) nat));
      map3
        (fun key col value ->
          Storage.Log_record.Install_cell
            {
              coord = (key, col);
              cell =
                { Storage.Row.value; version = 2; lsn = lsn 1 1; timestamp = 0; txn_ts = None };
            })
        str str (opt str);
      return (Storage.Log_record.Cohort_change { add = Some 1; remove = None });
      map (fun at -> Storage.Log_record.Split { at; new_range = 3 }) str;
    ]

let prop_propose_size_matches_cells =
  QCheck.Test.make ~name:"message: propose size = the cell-built formula" ~count:500
    (QCheck.make log_op_gen) (fun op ->
      let writes = [ (lsn 1 1, op, 0, None) ] in
      Message.size (Message.Propose { range = 0; epoch = 1; writes; piggyback_cmt = None })
      = 32 + size_of_write_via_cells op)

let suite =
  [
    Alcotest.test_case "partition: shape" `Quick test_partition_shape;
    Alcotest.test_case "partition: chained declustering (Fig 2)" `Quick
      test_partition_chained_declustering;
    Alcotest.test_case "partition: node<->range inverse" `Quick test_partition_node_ranges_inverse;
    Alcotest.test_case "partition: bounds cover key space" `Quick test_partition_bounds_cover_space;
    QCheck_alcotest.to_alcotest prop_route_within_cohorted_range;
    QCheck_alcotest.to_alcotest prop_route_respects_bounds;
    QCheck_alcotest.to_alcotest prop_key_encoding_order_preserving;
    Alcotest.test_case "queue: quorum + order" `Quick test_queue_commit_order_and_quorum;
    Alcotest.test_case "queue: gap blocks commit" `Quick test_queue_commit_stops_at_gap;
    Alcotest.test_case "queue: duplicate acks" `Quick test_queue_duplicate_acks_counted_once;
    Alcotest.test_case "queue: pop_upto" `Quick test_queue_pop_upto;
    Alcotest.test_case "queue: drop_above" `Quick test_queue_drop_above;
    Alcotest.test_case "queue: version overlay" `Quick test_queue_latest_version_overlay;
    QCheck_alcotest.to_alcotest prop_queue_commits_exactly_once;
    QCheck_alcotest.to_alcotest prop_queue_frontier_matches_naive_walk;
    QCheck_alcotest.to_alcotest prop_lsn_diff_sorted;
    Alcotest.test_case "message: read/write classification" `Quick test_message_classification;
    Alcotest.test_case "message: size accounting" `Quick test_message_sizes_scale;
    QCheck_alcotest.to_alcotest prop_propose_size_matches_cells;
    Alcotest.test_case "message: txn/scan classification" `Quick test_message_new_ops_classified;
    Alcotest.test_case "log record: batch helpers" `Quick test_batch_op_helpers;
  ]
