(* Transaction-layer tests: the QCheck differential against the plain write
   path, MVCC snapshot-visibility properties at the store, the
   serializability checker's anomaly fixtures, and the row-cache/snapshot
   isolation regression.

   The differential is the layering contract: a transaction with no reads
   and one single-cell write takes the blind fast path and must be
   byte-identical to [Client.put] — same messages, same timing, same
   history fingerprint — so the txn layer is a strict generalization of the
   write path rather than a parallel implementation that could drift. *)

open Spinnaker
module History = Workload.History
module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_opt = Alcotest.(check (option string))

let lsn e s = Lsn.make ~epoch:e ~seq:s

let test_config =
  {
    Config.default with
    Config.nodes = 3;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

(* --- differential: 1-key txns vs the plain write path --------------------- *)

(* One schedule of single-key puts, executed either through [Client.put] or
   as 1-key transactions through [Txn.run]. Identical seed, cluster build,
   and inter-write gaps; the recorded history's fingerprint (keys, seqs,
   ack outcomes, invocation/completion sim-times) is the oracle. Any
   divergence — an extra message, a different retry, a shifted ack — moves
   a completion time and changes the digest. *)
let run_put_schedule ~as_txn ~seed ops =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then
    Alcotest.failf "seed %d: cluster never became ready" seed;
  let client = Cluster.new_client cluster in
  let mgr = Txn.manager ~engine ~config:test_config client in
  let partition = Cluster.partition cluster in
  let history = History.create () in
  let seqs = Hashtbl.create 8 in
  List.iter
    (fun (key_idx, gap_ms) ->
      let key = Partition.key_of_int partition key_idx in
      let seq = 1 + (match Hashtbl.find_opt seqs key with Some n -> n | None -> 0) in
      Hashtbl.replace seqs key seq;
      let invoked = Sim.Engine.now engine in
      let settled = ref None in
      (if as_txn then
         Txn.run mgr ~reads:[]
           ~compute:(fun _ -> [ (key, "c", Some (string_of_int seq)) ])
           (fun outcome ->
             settled := Some (match outcome with Txn.Committed _ -> true | _ -> false))
       else
         Client.put client key "c" ~value:(string_of_int seq) (fun r ->
             settled := Some (Result.is_ok r)));
      let rec drive n =
        match !settled with
        | Some acked ->
          History.record_write history ~key ~seq ~invoked
            ~completed:(Sim.Engine.now engine) ~acked
        | None when n = 0 -> Alcotest.failf "seed %d: write never settled" seed
        | None ->
          Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
          drive (n - 1)
      in
      drive 2_000;
      if gap_ms > 0 then Sim.Engine.run_for engine (Sim.Sim_time.ms gap_ms))
    ops;
  History.fingerprint history

let prop_single_key_txn_differential =
  QCheck.Test.make ~name:"1-key txns are byte-identical to plain puts" ~count:300
    QCheck.(
      pair (int_bound 9_999)
        (list_of_size (Gen.int_range 1 5) (pair (int_bound 7) (int_bound 40))))
    (fun (seed, ops) ->
      String.equal
        (run_put_schedule ~as_txn:false ~seed ops)
        (run_put_schedule ~as_txn:true ~seed ops))

(* --- MVCC visibility at the store ----------------------------------------- *)

let make_store ?(cache_capacity = 0) () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) () in
  Store.create ~cohort:0 ~wal ~cache_capacity ()

(* Version i of the test coordinate: LSN 1.i; plain writes carry value
   "p<i>", transactionally installed versions "t<i>" with commit timestamp
   i*100. *)
let coord = ("acct", "c")

let install_versions store kinds =
  List.iteri
    (fun j is_txn ->
      let i = j + 1 in
      let l = lsn 1 i in
      if is_txn then
        Store.apply store ~lsn:l ~timestamp:(i * 100)
          (Log_record.Txn_resolve
             {
               txn = Printf.sprintf "t%d" i;
               commit = true;
               ts = i * 100;
               writes = [ (fst coord, snd coord, Some (Printf.sprintf "t%d" i), i) ];
             })
      else
        Store.apply store ~lsn:l ~timestamp:(i * 100)
          (Log_record.Put
             { key = fst coord; col = snd coord; value = Printf.sprintf "p%d" i; version = i }))
    kinds

(* The reference visibility rule, computed over the abstract version list:
   a plain version is visible iff its LSN index is at or below the fence, a
   transactional version iff its commit timestamp is at or below the
   snapshot timestamp. The newest visible version wins; a version above the
   fence must never be served, nor an older one when a newer visible one
   exists ("overwritten at end_lsn <= B"). *)
let expected_visible kinds ~fence_idx ~fence_ts =
  let n = List.length kinds in
  let rec scan i =
    if i < 1 then None
    else
      let is_txn = List.nth kinds (i - 1) in
      let visible = if is_txn then i * 100 <= fence_ts else i <= fence_idx in
      if visible then Some (Printf.sprintf "%s%d" (if is_txn then "t" else "p") i)
      else scan (i - 1)
  in
  scan n

let prop_snapshot_visibility =
  QCheck.Test.make ~name:"snapshot_get matches the interval visibility rule" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 12) bool)
        (pair (int_bound 14) (int_bound 15)))
    (fun (kinds, (fence_idx, fts_raw)) ->
      let store = make_store () in
      install_versions store kinds;
      let fence = if fence_idx = 0 then Lsn.zero else lsn 1 fence_idx in
      let fence_ts = fts_raw * 100 in
      let got =
        match Store.snapshot_get store coord ~fence ~fence_ts with
        | Store.Snap_cell c -> c.Row.value
        | Store.Snap_none -> None
        | Store.Snap_blocked txn -> Some ("blocked:" ^ txn)
      in
      got = expected_visible kinds ~fence_idx ~fence_ts)

(* An unresolved intent at or below the fence blocks the snapshot reader —
   the owning transaction may yet commit inside the snapshot. Above the
   fence it is invisible and reads proceed. *)
let test_snapshot_blocked_by_intent () =
  let store = make_store () in
  Store.apply store ~lsn:(lsn 1 1) ~timestamp:100
    (Log_record.Put { key = fst coord; col = snd coord; value = "base"; version = 1 });
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:200
    (Log_record.Txn_prepare
       {
         txn = "tx-blocking";
         anchor = fst coord;
         fence = lsn 1 1;
         writes = [ (fst coord, snd coord, Some "proposed") ];
       });
  (match Store.snapshot_get store coord ~fence:(lsn 1 2) ~fence_ts:1_000_000 with
  | Store.Snap_blocked txn -> Alcotest.(check string) "owner" "tx-blocking" txn
  | _ -> Alcotest.fail "intent at/below the fence must block the reader");
  (* A snapshot fenced below the prepare never sees the intent. *)
  (match Store.snapshot_get store coord ~fence:(lsn 1 1) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "pre-intent version" (Some "base") c.Row.value
  | _ -> Alcotest.fail "intent above the fence must not block");
  (* Resolution unblocks: commit installs the final cell, clears the intent. *)
  Store.apply store ~lsn:(lsn 1 3) ~timestamp:300
    (Log_record.Txn_resolve
       {
         txn = "tx-blocking";
         commit = true;
         ts = 250;
         writes = [ (fst coord, snd coord, Some "proposed", 2) ];
       });
  match Store.snapshot_get store coord ~fence:(lsn 1 3) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "resolved version" (Some "proposed") c.Row.value
  | _ -> Alcotest.fail "resolved write must be visible"

(* --- row-cache/snapshot isolation (the satellite bugfix) ------------------- *)

(* Cache the post-fence newest version via the plain read path, then read at
   an older fence: the snapshot must bypass the LRU row cache and serve the
   older version. Served-from-cache would be exactly the bug — the cache
   only knows "newest", not "newest visible at this fence". *)
let test_snapshot_reads_bypass_row_cache () =
  let store = make_store ~cache_capacity:8 () in
  Store.apply store ~lsn:(lsn 1 1) ~timestamp:100
    (Log_record.Put { key = fst coord; col = snd coord; value = "old"; version = 1 });
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:200
    (Log_record.Put { key = fst coord; col = snd coord; value = "new"; version = 2 });
  (* Populate the cache with the newest version and prove it is hot. *)
  ignore (Store.get store coord);
  (match Store.get_profiled store coord with
  | Some c, Store.Cache_hit -> check_str_opt "cached newest" (Some "new") c.Row.value
  | _ -> Alcotest.fail "expected the newest version to be cached");
  let hits_before = Store.cache_hits store in
  (match Store.snapshot_get store coord ~fence:(lsn 1 1) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "older fence, older version" (Some "old") c.Row.value
  | _ -> Alcotest.fail "snapshot read at the older fence lost the old version");
  check_int "snapshot read never touched the cache" hits_before (Store.cache_hits store)

(* Serving a snapshot read must not touch the row cache at all: no hit, no
   miss, no eviction. Leader-side observation of a served snapshot (trace
   detail, debug text) once looked the key up through [Store.get], which
   warmed the LRU and moved its counters on every snapshot read. *)
let test_snapshot_reads_leave_cache_counters () =
  let engine = Sim.Engine.create ~seed:11 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster never became ready";
  let client = Cluster.new_client cluster in
  let key = Partition.key_of_int (Cluster.partition cluster) 42 in
  let await cell =
    let rec go n =
      match !cell with
      | Some v -> v
      | None when n = 0 -> Alcotest.fail "request never completed"
      | None ->
        Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
        go (n - 1)
    in
    go 2_000
  in
  let put = ref None in
  Client.put client key "c" ~value:"v" (fun r -> put := Some r);
  if Result.is_error (await put) then Alcotest.fail "put failed";
  let fenced = ref None in
  Client.fence client key (fun r -> fenced := Some r);
  let fence, fence_ts =
    match await fenced with Ok f -> f | Error _ -> Alcotest.fail "fence failed"
  in
  let counters () =
    let s = Cluster.read_path_stats cluster in
    (s.Cluster.cache_hits, s.Cluster.cache_misses)
  in
  let before = counters () in
  for _ = 1 to 5 do
    let read = ref None in
    Client.snap_get client key "c" ~fence ~fence_ts (fun r -> read := Some r);
    match await read with
    | Ok (Client.Snap_value r) -> check_str_opt "snapshot value" (Some "v") r.Client.value
    | _ -> Alcotest.fail "snapshot read failed"
  done;
  let hits, misses = counters () in
  check_int "cache hits unchanged" (fst before) hits;
  check_int "cache misses unchanged" (snd before) misses

(* --- presumed abort ------------------------------------------------------------ *)

(* A transaction prepares at one range and its coordinator never decides.
   Once the intent is older than [indoubt_after], the participant leader's
   next sweep asks the anchor's range for the outcome; finding none, the
   coordinator logs an abort, and the intent is resolved with it. *)
let test_presumed_abort_resolves_orphan_intent () =
  let engine = Sim.Engine.create ~seed:5 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster never became ready";
  let client = Cluster.new_client cluster in
  let partition = Cluster.partition cluster in
  let key = Partition.key_of_int partition 42 in
  let range = Partition.route partition key in
  let rec other i =
    let k = Partition.key_of_int partition i in
    if Partition.route partition k <> range then k else other (i + 1_000)
  in
  let anchor = other 1_000 in
  let await cell =
    let rec go n =
      match !cell with
      | Some v -> v
      | None when n = 0 -> Alcotest.fail "request never completed"
      | None ->
        Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
        go (n - 1)
    in
    go 2_000
  in
  let leader_store range =
    match Cluster.leader_of cluster ~range with
    | None -> Alcotest.failf "range %d has no leader" range
    | Some n -> (
      match List.assoc_opt range (Node.cohorts (Cluster.node cluster n)) with
      | Some c -> Cohort.store c
      | None -> Alcotest.failf "leader n%d does not host range %d" n range)
  in
  let fenced = ref None in
  Client.fence client key (fun r -> fenced := Some r);
  let fence, fence_ts =
    match await fenced with Ok f -> f | Error _ -> Alcotest.fail "fence failed"
  in
  let prepared = ref None in
  Client.txn_prepare client ~txn:"orphan" ~anchor ~fence ~fence_ts
    [ (key, "c", Some "never") ]
    (fun r -> prepared := Some r);
  if Result.is_error (await prepared) then Alcotest.fail "prepare failed";
  let live () = List.map (fun (txn, _, _) -> txn) (Store.live_intents (leader_store range)) in
  Alcotest.(check (list string)) "the intent is live" [ "orphan" ] (live ());
  let decision () =
    let store = leader_store (Partition.route partition anchor) in
    match Store.decision store (anchor, Row.decision_col "orphan") with
    | Some { Row.value = Some payload; _ } -> Row.decode_decision payload
    | _ -> None
  in
  (* Not in doubt yet: no sweep may touch it before [indoubt_after]. *)
  Sim.Engine.run_for engine
    (Sim.Sim_time.span_scale Txn_participant.indoubt_after 0.9);
  Alcotest.(check (list string)) "still live before it is in doubt" [ "orphan" ] (live ());
  check_bool "no decision yet" true (decision () = None);
  Sim.Engine.run_for engine
    (Sim.Sim_time.span_scale Txn_participant.sweep_period 1.2);
  check_bool "the anchor holds an abort" true
    (match decision () with Some (false, _) -> true | _ -> false);
  Alcotest.(check (list string)) "no live intent" [] (live ());
  let put = ref None in
  Client.put client key "c" ~value:"after" (fun r -> put := Some r);
  check_bool "a plain put succeeds" true (Result.is_ok (await put))

(* --- serializability checker anomaly fixtures ------------------------------ *)

(* G1c, circular information flow: T1 reads y from T2 and writes x; T2 reads
   x from T1 and writes y. Two wr edges form a cycle no serial order
   satisfies. *)
let test_checker_catches_g1c () =
  let h = History.create () in
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("y", Some "t2") ] ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:200 ~reads:[ ("x", Some "t1") ] ~writes:[ "y" ];
  check_bool "G1c cycle reported" true (History.check_serializable h <> [])

(* Lost update: T1 and T2 both read x from T0 and both write x. Whichever
   commits second overwrote a value it never observed — an rw/ww cycle. *)
let test_checker_catches_lost_update () =
  let h = History.create () in
  History.record_txn h ~id:"t0" ~commit_ts:50 ~reads:[] ~writes:[ "x" ];
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("x", Some "t0") ] ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:150 ~reads:[ ("x", Some "t0") ] ~writes:[ "x" ];
  check_bool "lost update reported" true (History.check_serializable h <> [])

(* A read observing a writer that never committed is dirty by definition. *)
let test_checker_catches_phantom_writer () =
  let h = History.create () in
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("x", Some "ghost") ] ~writes:[ "y" ];
  check_bool "uncommitted writer reported" true (History.check_serializable h <> [])

(* The clean fixture: a serial read-modify-write chain must pass, or the
   checker would drown real anomalies in noise. *)
let test_checker_accepts_serial_chain () =
  let h = History.create () in
  History.record_txn h ~id:"t0" ~commit_ts:50 ~reads:[] ~writes:[ "x"; "y" ];
  History.record_txn h ~id:"t1" ~commit_ts:100
    ~reads:[ ("x", Some "t0"); ("y", Some "t0") ]
    ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:150
    ~reads:[ ("x", Some "t1"); ("y", Some "t0") ]
    ~writes:[ "y" ];
  Alcotest.(check int) "serial chain is clean" 0 (List.length (History.check_serializable h))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_single_key_txn_differential;
    QCheck_alcotest.to_alcotest prop_snapshot_visibility;
    Alcotest.test_case "snapshot readers block on unresolved intents" `Quick
      test_snapshot_blocked_by_intent;
    Alcotest.test_case "snapshot reads bypass the row cache" `Quick
      test_snapshot_reads_bypass_row_cache;
    Alcotest.test_case "served snapshot reads leave the cache counters alone" `Quick
      test_snapshot_reads_leave_cache_counters;
    Alcotest.test_case "checker catches G1c circular information flow" `Quick
      test_checker_catches_g1c;
    Alcotest.test_case "checker catches lost updates" `Quick test_checker_catches_lost_update;
    Alcotest.test_case "checker catches reads of uncommitted writers" `Quick
      test_checker_catches_phantom_writer;
    Alcotest.test_case "checker accepts a serial chain" `Quick
      test_checker_accepts_serial_chain;
    Alcotest.test_case "presumed abort resolves an orphaned intent" `Quick
      test_presumed_abort_resolves_orphan_intent;
  ]
