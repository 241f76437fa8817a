(* The store's decision table: 2PC decision cells leave the memtable for a
   per-store table that every checkpoint carries.

   - A QCheck model runs random sequences of applies (data, intent and
     decision cells), flushes, landed forces, recoveries with and without a
     crash, and splits
     against a reference of the applied decisions. After every step the
     decision lookup must equal the reference, and catch-up
     ([committed_cells_in]) and a migration's bulk round ([all_cells] plus
     the chain tails) must ship exactly the reference's decision cells.
   - A tail of decisions alone still rolls the log over.
   - Cohort level: a follower caught up from SSTables, a migration joiner
     and a split child each answer a status query with the recorded
     outcome. *)

open Spinnaker
module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Log_record = Storage.Log_record
module Wal = Storage.Wal

let check_bool = Alcotest.(check bool)
let lsn seq = Lsn.make ~epoch:1 ~seq

let make_wal () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  (engine, Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) ())

(* --- the table against a reference, step by step ------------------------ *)

type step =
  | Put of int * int  (** key, value *)
  | Prepare of int * int list  (** txn, keys *)
  | Resolve of int * bool * int list  (** txn, commit, keys *)
  | Decide of int * bool  (** txn (its anchor is fixed by the id), commit *)
  | Flush
  | Land  (** run the engine: in-flight forces land, rollovers happen *)
  | Recover  (** replay without a crash, as a layout reconcile does *)
  | Crash_recover
  | Split of int * bool  (** split key, keep the child (else the parent) *)

let nkeys = 6
let ntxns = 8
let key i = Printf.sprintf "k%d" i
let txn_id j = Printf.sprintf "t%d" j
let anchor_of j = key (j mod nkeys)

let pp_step = function
  | Put (k, v) -> Printf.sprintf "put k%d=%d" k v
  | Prepare (j, ks) ->
    Printf.sprintf "prep t%d [%s]" j (String.concat "," (List.map string_of_int ks))
  | Resolve (j, c, ks) ->
    Printf.sprintf "%s t%d [%s]" (if c then "commit" else "abort") j
      (String.concat "," (List.map string_of_int ks))
  | Decide (j, c) -> Printf.sprintf "decide t%d=%s" j (if c then "commit" else "abort")
  | Flush -> "flush"
  | Land -> "land"
  | Recover -> "recover"
  | Crash_recover -> "crash"
  | Split (k, child) -> Printf.sprintf "split@k%d->%s" k (if child then "child" else "parent")

let step_gen =
  QCheck.Gen.(
    let k = int_bound (nkeys - 1) and j = int_bound (ntxns - 1) in
    let ks = map (List.sort_uniq compare) (list_size (int_range 1 2) k) in
    frequency
      [
        (4, map2 (fun k v -> Put (k, v)) k small_nat);
        (2, map2 (fun j ks -> Prepare (j, ks)) j ks);
        (2, map3 (fun j c ks -> Resolve (j, c, ks)) j bool ks);
        (5, map2 (fun j c -> Decide (j, c)) j bool);
        (2, return Flush);
        (2, return Land);
        (1, return Recover);
        (2, return Crash_recover);
        (1, map2 (fun k c -> Split (k, c)) (int_range 1 (nkeys - 1)) bool);
      ])

let arb_steps =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))
    QCheck.Gen.(list_size (int_range 1 40) step_gen)

type model = {
  engine : Sim.Engine.t;
  wal : Wal.t;
  mutable store : Store.t;
  mutable cohort : int;
  mutable seq : int;
  mutable lo : string;
  mutable hi : string;  (** the store's key bounds, [lo, hi) *)
  mutable applied : (Row.coord * Row.cell) list;
      (** every decision cell the store took, by coordinate *)
  mutable decided : string list;  (** txns decided anywhere: first decision wins *)
}

let in_range m k = String.compare m.lo k <= 0 && String.compare k m.hi < 0

(* The reference's decision cells inside the bounds, ascending by coordinate. *)
let ref_cells m ~keep =
  List.filter (fun ((k, _), c) -> in_range m k && keep c) m.applied
  |> List.sort (fun (a, _) (b, _) -> Row.compare_coord a b)

let decision_cells cells =
  List.filter (fun ((_, col), _) -> Row.is_decision_col col) cells
  |> List.sort (fun (a, _) (b, _) -> Row.compare_coord a b)

let apply m op =
  m.seq <- m.seq + 1;
  let lsn = lsn m.seq and timestamp = m.seq in
  Wal.append m.wal (Log_record.write ~cohort:m.cohort ~lsn ~timestamp op);
  Wal.append m.wal (Log_record.commit_upto ~cohort:m.cohort lsn);
  Wal.force m.wal ignore;
  Sim.Engine.run m.engine;
  Store.apply m.store ~lsn ~timestamp op;
  List.iter
    (fun (((k, col) as coord), cell) ->
      if Row.is_decision_col col && in_range m k then
        m.applied <- (coord, cell) :: m.applied)
    (Log_record.cells_of_write op ~lsn ~timestamp)

let run_step m = function
  | Put (k, v) ->
    apply m (Log_record.Put { key = key k; col = "c"; value = string_of_int v; version = m.seq })
  | Prepare (j, ks) ->
    apply m
      (Log_record.Txn_prepare
         {
           txn = txn_id j;
           anchor = anchor_of j;
           fence = lsn m.seq;
           writes = List.map (fun k -> (key k, "c", Some "p")) ks;
         })
  | Resolve (j, commit, ks) ->
    apply m
      (Log_record.Txn_resolve
         {
           txn = txn_id j;
           commit;
           ts = m.seq * 10;
           writes = List.map (fun k -> (key k, "c", Some "r", m.seq)) ks;
         })
  | Decide (j, commit) ->
    if not (List.mem (txn_id j) m.decided) then begin
      m.decided <- txn_id j :: m.decided;
      apply m
        (Log_record.Txn_decision
           { txn = txn_id j; anchor = anchor_of j; commit; ts = (m.seq + 1) * 10 })
    end
  | Flush -> Store.flush m.store ~replies:[]
  | Land -> Sim.Engine.run m.engine
  | Recover -> ignore (Store.recover m.store)
  | Crash_recover ->
    Wal.crash m.wal;
    Store.crash m.store;
    ignore (Store.recover m.store)
  | Split (k, keep_child) ->
    let at = key k in
    if String.compare m.lo at < 0 && String.compare at m.hi < 0 then begin
      (* The split protocol flushes the parent before the split record. *)
      Store.flush m.store ~replies:[];
      if keep_child then begin
        m.cohort <- m.cohort + 1;
        m.store <- Store.split_child m.store ~cohort:m.cohort ~lo:at ~hi:m.hi;
        m.lo <- at
      end
      else begin
        Store.set_bounds m.store ~lo:m.lo ~hi:at;
        m.hi <- at
      end
    end

let check m step =
  let fail fmt = QCheck.Test.fail_reportf ("after step %d: " ^^ fmt) step in
  for j = 0 to ntxns - 1 do
    let txn = txn_id j in
    let coord = (anchor_of j, Row.decision_col txn) in
    let want = if in_range m (anchor_of j) then List.assoc_opt coord m.applied else None in
    if Store.decision m.store coord <> want then fail "decision %s differs" txn;
    if Store.get m.store coord <> None then
      fail "decision %s reached the memtable or an SSTable" txn
  done;
  let export = decision_cells (Store.all_cells m.store @ Store.chain_history_cells m.store) in
  if export <> ref_cells m ~keep:(fun _ -> true) then fail "the migration export differs";
  let upto = lsn m.seq in
  List.iter
    (fun above ->
      let shipped = decision_cells (Store.committed_cells_in m.store ~above ~upto) in
      let want = ref_cells m ~keep:(fun (c : Row.cell) -> Lsn.(c.lsn > above && c.lsn <= upto)) in
      if shipped <> want then
        fail "committed_cells_in above %s: %d decision cells, want %d" (Lsn.to_string above)
          (List.length shipped) (List.length want))
    [ Lsn.zero; lsn (m.seq / 2); Store.flushed_upto m.store; lsn (m.seq - 2) ]

let prop_table_matches_reference =
  QCheck.Test.make ~name:"decision table: lookup and shipping match a reference" ~count:300
    arb_steps (fun steps ->
      let engine, wal = make_wal () in
      let m =
        {
          engine;
          wal;
          store = Store.create ~cohort:0 ~wal ();
          cohort = 0;
          seq = 0;
          lo = "";
          hi = "l";
          applied = [];
          decided = [];
        }
      in
      List.iteri
        (fun i s ->
          run_step m s;
          check m (i + 1))
        steps;
      true)

(* --- a tail of decisions alone rolls the log over ------------------------ *)

(* A coordinator whose log holds nothing but decisions (presumed-abort status
   queries, say) leaves its memtable empty. The log-size trigger must still
   fire at its floor and the checkpoint must still roll the log over, so the
   log holds at most one trigger's worth of records; a restart answers every
   decision from the checkpointed table plus that tail. *)
let test_decision_tail_rolls_over () =
  let engine, wal = make_wal () in
  let store = Store.create ~cohort:0 ~wal () in
  let n = 5_000 in
  let op seq =
    Log_record.Txn_decision
      { txn = Printf.sprintf "txn%05d" seq; anchor = "anchor"; commit = seq mod 3 <> 0; ts = seq }
  in
  let bound = (Store.log_flush_floor / Log_record.write_bytes (op 1)) + 2 in
  let peak = ref 0 in
  for seq = 1 to n do
    let lsn = lsn seq in
    Wal.append wal (Log_record.write ~cohort:0 ~lsn ~timestamp:seq (op seq));
    Wal.force wal ignore;
    Sim.Engine.run engine;
    Store.apply store ~lsn ~timestamp:seq (op seq);
    if Store.flush_due store then Store.flush store ~replies:[];
    peak := max !peak (Wal.durable_writes wal ~cohort:0)
  done;
  Sim.Engine.run engine;
  if !peak > bound then Alcotest.failf "the log held %d records, bound %d" !peak bound;
  Alcotest.(check int) "the memtable stays empty" 0 (Store.memtable_size store);
  check_bool "the flush horizon advanced" true Lsn.(Store.flushed_upto store > lsn (n - bound));
  Store.crash store;
  ignore (Store.recover_all store);
  for seq = 1 to n do
    match Store.decision store ("anchor", Row.decision_col (Printf.sprintf "txn%05d" seq)) with
    | Some { Row.value = Some payload; _ } ->
      if Row.decode_decision payload <> Some (seq mod 3 <> 0, seq) then
        Alcotest.failf "txn%05d: wrong decision after restart" seq
    | _ -> Alcotest.failf "txn%05d: no decision after restart" seq
  done

(* --- cohort level ------------------------------------------------------- *)

let config =
  {
    Config.default with
    Config.nodes = 3;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

let boot ~config ~seed =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster never became ready";
  (engine, cluster)

let await engine ?(timeout = 30.0) cond =
  Option.is_some
    (Workload.Chaos.drive engine ~every:(Sim.Sim_time.ms 20)
       ~polls:(Float.to_int (Float.round (timeout *. 50.0)))
       (fun () -> if cond () then Some () else None))

let sync engine f =
  let r = ref None in
  f (fun x -> r := Some x);
  match Workload.Chaos.drive engine ~polls:3000 (fun () -> !r) with
  | Some v -> v
  | None -> Alcotest.fail "request never completed"

let decide engine client ~txn ~anchor ~commit =
  match sync engine (Client.txn_decide client ~txn ~anchor ~commit) with
  | Ok d -> d
  | Error e -> Alcotest.failf "decide %s: %a" txn Client.pp_error e

(* A status query is a decide with [commit = false]: a replica that lost the
   decision would log an abort and answer with it. *)
let check_status engine client ~txn ~anchor want =
  match sync engine (Client.txn_status client ~txn ~anchor) with
  | Ok got ->
    check_bool (Printf.sprintf "%s answers its recorded outcome" txn) true (got = want)
  | Error e -> Alcotest.failf "status %s: %a" txn Client.pp_error e

let replica cluster n ~range =
  match Node.cohort (Cluster.node cluster n) ~range with
  | Some c -> c
  | None -> Alcotest.failf "n%d hosts no replica of range %d" n range

let has_decision cluster n ~range ~anchor txn =
  match Node.cohort (Cluster.node cluster n) ~range with
  | Some c -> Store.decision (Cohort.store c) (anchor, Row.decision_col txn) <> None
  | None -> false

let roll_over engine cluster ~range =
  List.iter
    (fun n ->
      if Node.alive (Cluster.node cluster n) then Cohort.flush (replica cluster n ~range))
    (Partition.cohort (Cluster.partition cluster) ~range);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1)

(* Make [node] the range's leader: every other member goes down, one of them
   loses its disk and comes back, so [node] holds the longest log of the
   majority that can elect. *)
let lead_with engine cluster ~range node =
  let others = List.filter (( <> ) node) (Partition.cohort (Cluster.partition cluster) ~range) in
  List.iter (Cluster.crash_node cluster) others;
  let wiped = List.hd others in
  Node.lose_disk (Cluster.node cluster wiped);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  Cluster.restart_node cluster wiped;
  check_bool
    (Printf.sprintf "n%d leads range %d" node range)
    true
    (await engine (fun () -> Cluster.leader_of cluster ~range = Some node))

(* A follower is down while a decision commits and the cohort rolls its log
   over, so it catches up from the leader's SSTables and decision table.
   Elected, it answers a status query for that transaction with the
   recorded commit: the first decision still wins. *)
let test_follower_caught_up_from_sstables () =
  let engine, cluster = boot ~config ~seed:11 in
  let client = Cluster.new_client cluster in
  let partition = Cluster.partition cluster in
  let anchor = Partition.key_of_int partition 4_242 in
  let range = Partition.route partition anchor in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let follower =
    List.find (( <> ) leader) (Partition.cohort partition ~range)
  in
  Cluster.crash_node cluster follower;
  let recorded = decide engine client ~txn:"down" ~anchor ~commit:true in
  roll_over engine cluster ~range;
  let leader_store = Cohort.store (replica cluster leader ~range) in
  let decided_at =
    match Store.decision leader_store (anchor, Row.decision_col "down") with
    | Some cell -> cell.Row.lsn
    | None -> Alcotest.fail "the leader holds no decision"
  in
  check_bool "the leader rolled the decision's record over" true
    (match Wal.min_available_write_lsn (Node.wal (Cluster.node cluster leader)) ~cohort:range with
    | Some floor -> Lsn.(floor > decided_at)
    | None -> true);
  let served = Store.served_from_sstables leader_store in
  Cluster.restart_node cluster follower;
  check_bool "the follower catches up the decision" true
    (await engine (fun () -> has_decision cluster follower ~range ~anchor "down"));
  check_bool "the catch-up was served from SSTables" true
    (Store.served_from_sstables leader_store > served);
  lead_with engine cluster ~range follower;
  check_status engine client ~txn:"down" ~anchor recorded

(* Decisions rolled out of the log reach a migration's joiner in the bulk
   round; elected, the joiner answers each with its recorded outcome. *)
let test_migration_joiner_answers () =
  let engine, cluster = boot ~config:Workload.Chaos.default_config ~seed:21 in
  let client = Cluster.new_client cluster in
  let partition = Cluster.partition cluster in
  let range = 0 in
  let txns =
    List.init 6 (fun i ->
        let anchor = Partition.key_of_int partition (i * 3_000) in
        let txn = Printf.sprintf "mig%d" i in
        (txn, anchor, decide engine client ~txn ~anchor ~commit:(i mod 2 = 0)))
  in
  List.iter (fun (_, anchor, _) -> assert (Partition.route partition anchor = range)) txns;
  roll_over engine cluster ~range;
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let donor = List.find (( <> ) leader) (Partition.cohort partition ~range) in
  let joiner = Cluster.add_node cluster in
  check_bool "migration completes" true
    (await engine ~timeout:60.0 (fun () ->
         List.mem joiner (Partition.cohort partition ~range)
         ||
         (ignore (Cluster.request_join cluster ~range ~joiner ~remove:donor ());
          false)));
  check_bool "the joiner holds every decision" true
    (await engine (fun () ->
         List.for_all (fun (txn, anchor, _) -> has_decision cluster joiner ~range ~anchor txn)
           txns));
  check_bool "the joiner is promoted" true
    (await engine (fun () -> not (Cohort.is_learner (replica cluster joiner ~range))));
  lead_with engine cluster ~range joiner;
  List.iter (fun (txn, anchor, recorded) -> check_status engine client ~txn ~anchor recorded) txns

(* A split child inherits the decisions whose anchor it owns, and keeps them
   across a restart of its whole cohort before its own first checkpoint. *)
let test_split_child_answers () =
  let engine, cluster = boot ~config:Workload.Chaos.default_config ~seed:22 in
  let client = Cluster.new_client cluster in
  let partition = Cluster.partition cluster in
  let range = 0 in
  for k = 0 to 119 do
    let key = Partition.key_of_int partition (k * 150) in
    match sync engine (Client.put client key "c" ~value:"v") with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed write: %a" Client.pp_error e
  done;
  let txns =
    List.init 8 (fun i ->
        let anchor = Partition.key_of_int partition ((i * 2_400) + 75) in
        let txn = Printf.sprintf "split%d" i in
        (txn, anchor, decide engine client ~txn ~anchor ~commit:(i mod 3 <> 0)))
  in
  roll_over engine cluster ~range;
  let before = Partition.ranges partition in
  check_bool "split completes" true
    (await engine ~timeout:60.0 (fun () ->
         Partition.ranges partition > before
         ||
         (ignore (Cluster.request_split cluster ~range);
          false)));
  check_bool "both halves elect leaders" true (await engine (fun () -> Cluster.is_ready cluster));
  let child_anchors =
    List.filter (fun (_, anchor, _) -> Partition.route partition anchor <> range) txns
  in
  check_bool "some anchors moved to the child" true (child_anchors <> []);
  List.iter (fun (txn, anchor, recorded) -> check_status engine client ~txn ~anchor recorded) txns;
  let child = Partition.route partition (match child_anchors with (_, a, _) :: _ -> a | [] -> "") in
  let members = Partition.cohort partition ~range:child in
  List.iter (Cluster.crash_node cluster) members;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  List.iter (Cluster.restart_node cluster) members;
  check_bool "ready after the restart" true (await engine (fun () -> Cluster.is_ready cluster));
  List.iter
    (fun (txn, anchor, _) ->
      List.iter
        (fun n ->
          check_bool (Printf.sprintf "n%d keeps %s" n txn) true
            (has_decision cluster n ~range:child ~anchor txn))
        members)
    child_anchors;
  List.iter
    (fun (txn, anchor, recorded) -> check_status engine client ~txn ~anchor recorded)
    child_anchors

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_table_matches_reference ]
  @ [
      Alcotest.test_case "a tail of decisions alone rolls the log over" `Quick
        test_decision_tail_rolls_over;
      Alcotest.test_case "a follower caught up from SSTables answers the first decision" `Quick
        test_follower_caught_up_from_sstables;
      Alcotest.test_case "a migration joiner answers its anchors' decisions" `Quick
        test_migration_joiner_answers;
      Alcotest.test_case "a split child answers its anchors' decisions" `Quick
        test_split_child_answers;
    ]
