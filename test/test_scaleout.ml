(* Live membership change (§10): routing-table properties, differential
   bootstrap, deterministic migration and split runs, exactly-once across
   membership changes, and a chaos battery that crashes migration sources,
   joiners, and leaders mid-split.

   A failing chaos seed prints its injection log and is reproducible alone
   with e.g. [NEMESIS_SEEDS=7 dune exec test/test_main.exe -- test scaleout]. *)

open Spinnaker
module History = Workload.History
module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module Chaos = Workload.Chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------------- *)
(* Routing-table properties: random split / join / leave schedules.        *)

let prop_nodes = 5
let prop_repl = 3
let prop_ks = 1_000

type layout_op =
  | Swap of int * int * int  (* range selector, member slot, replacement node *)
  | Split_mid of int  (* range selector; split at the midpoint of its bounds *)

let pp_layout_op = function
  | Swap (r, m, n) -> Printf.sprintf "Swap(%d,%d,%d)" r m n
  | Split_mid r -> Printf.sprintf "Split(%d)" r

let layout_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun r m n -> Swap (r, m, n)) (int_bound 9_999) (int_bound (prop_repl - 1)) (int_bound 9));
        (2, map (fun r -> Split_mid r) (int_bound 9_999));
      ])

let arb_layout_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_layout_op ops))
    QCheck.Gen.(list_size (int_range 1 40) layout_op_gen)

let nth_range p sel =
  let ids = Partition.range_ids p in
  List.nth ids (sel mod List.length ids)

(* Apply one mutation; returns [true] iff the table reported a change. *)
let apply_layout_op p next_id op =
  match op with
  | Swap (r, slot, node) ->
    let range = nth_range p r in
    let members = Partition.cohort p ~range in
    if List.mem node members then
      (* Replacing a member with an existing member would shrink the cohort;
         the admin layer never asks for that. Re-asserting the current
         membership must be a version-preserving no-op (idempotent replay). *)
      Partition.set_members p ~range members
    else
      Partition.set_members p ~range
        (List.mapi (fun i m -> if i = slot then node else m) members)
  | Split_mid r ->
    let range = nth_range p r in
    let lo, hi = Partition.range_bounds p ~range in
    let lo = int_of_string lo and hi = int_of_string hi in
    if hi - lo < 2 then false
    else begin
      let at = Partition.key_of_int p ((lo + hi) / 2) in
      let id = !next_id in
      incr next_id;
      Partition.split p ~range ~at ~new_range:id
    end

let layout_invariants p =
  (* Descriptors tile [0, key_space): first lo is 0, each hi is the next lo,
     the last hi is the exclusive end of the key space. *)
  let descs = Partition.descs p in
  let rec tiles = function
    | (a : Partition.desc) :: (b :: _ as rest) -> a.hi = b.lo && tiles rest
    | [ last ] -> last.Partition.hi = Partition.key_of_int p prop_ks
    | [] -> false
  in
  (descs <> [] && (List.hd descs).Partition.lo = Partition.key_of_int p 0 && tiles descs)
  (* Every cohort stays at replication size with distinct members. *)
  && List.for_all
       (fun (d : Partition.desc) ->
         List.length d.members = prop_repl
         && List.length (List.sort_uniq compare d.members) = prop_repl)
       descs
  (* Every key routes to exactly one range, and that range's bounds hold it:
     with the tiling already checked, containment implies uniqueness. *)
  && List.for_all
       (fun k ->
         let range = Partition.route p (Partition.key_of_int p k) in
         let lo, hi = Partition.range_bounds p ~range in
         let key = Partition.key_of_int p k in
         String.compare lo key <= 0 && String.compare key hi < 0)
       (List.init 40 (fun i -> i * 25 mod prop_ks))

let prop_routing_invariants =
  QCheck.Test.make ~name:"routing: split/join/leave keeps tiling, cohorts, versions" ~count:200
    arb_layout_ops (fun ops ->
      let p = Partition.create ~nodes:prop_nodes ~replication:prop_repl ~key_space:prop_ks in
      let next_id = ref prop_nodes in
      List.for_all
        (fun op ->
          let before = Partition.version p in
          let changed = apply_layout_op p next_id op in
          let after = Partition.version p in
          (* Epochs are monotone: mutations bump, rejected ops leave alone. *)
          (if changed then after = before + 1 else after = before)
          && layout_invariants p)
        ops)

let prop_layout_convergence =
  QCheck.Test.make ~name:"routing: stale copies converge via published layouts" ~count:200
    arb_layout_ops (fun ops ->
      let master = Partition.create ~nodes:prop_nodes ~replication:prop_repl ~key_space:prop_ks in
      let client = Partition.copy master in
      let next_id = ref prop_nodes in
      let genesis = Partition.to_string master in
      let converged () =
        Partition.descs client = Partition.descs master
        && Partition.version client = Partition.version master
      in
      List.for_all
        (fun op ->
          ignore (apply_layout_op master next_id op);
          let behind = Partition.version client < Partition.version master in
          let published = Partition.to_string master in
          let refreshed = Partition.update_from_string client published in
          (* The refresh applies iff the client was actually behind, replaying
             the same layout is a no-op, and a stale (older) layout can never
             roll a fresher copy back. *)
          refreshed = behind
          && converged ()
          && (not (Partition.update_from_string client published))
          && (not (Partition.update_from_string client genesis))
          && converged ())
        ops)

(* ---------------------------------------------------------------------- *)
(* Differential bootstrap: snapshot ship + WAL catch-up == full history.   *)

type boot_op = Bput of int * int * int | Bdel of int * int | Bflush

let boot_keys = 8
let boot_cols = 2
let bkey k = Printf.sprintf "k%02d" k
let bcol c = Printf.sprintf "c%d" c

let boot_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun k c v -> Bput (k, c, v)) (int_bound (boot_keys - 1)) (int_bound (boot_cols - 1)) small_nat);
        (2, map2 (fun k c -> Bdel (k, c)) (int_bound (boot_keys - 1)) (int_bound (boot_cols - 1)));
        (2, return Bflush);
      ])

let pp_boot_op = function
  | Bput (k, c, v) -> Printf.sprintf "Put(%d,%d,%d)" k c v
  | Bdel (k, c) -> Printf.sprintf "Del(%d,%d)" k c
  | Bflush -> "Flush"

(* A schedule plus where the snapshot is cut and where the joiner crashes. *)
let arb_bootstrap =
  QCheck.make
    ~print:(fun (ops, cut, crash) ->
      Printf.sprintf "cut=%d%% crash=%d [%s]" cut crash
        (String.concat "; " (List.map pp_boot_op ops)))
    QCheck.Gen.(
      triple
        (list_size (int_range 4 120) boot_op_gen)
        (int_bound 100)
        (int_bound 100))

(* One replica = a WAL + store pair on a shared engine, mirroring how a
   cohort writes: log-append then apply, forces drained by the engine.
   Compaction is disabled on every replica so tombstone GC cannot introduce
   benign reference divergence (that case is test_read_path's subject). *)
let make_replica engine =
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 7) ~max_batch:8 () in
  let store =
    Store.create ~cohort:0 ~wal ~compaction_fanin:max_int ~max_sstables:max_int
      ~cache_capacity:0 ()
  in
  (wal, store)

let op_of i = function
  | Bput (k, c, v) ->
    Some (Log_record.Put { key = bkey k; col = bcol c; value = string_of_int v; version = i })
  | Bdel (k, c) -> Some (Log_record.Delete { key = bkey k; col = bcol c; version = i })
  | Bflush -> None

let replica_apply engine (wal, store) i op =
  (match op_of i op with
  | Some rec_op ->
    let lsn = Lsn.make ~epoch:1 ~seq:i in
    Wal.append wal (Log_record.write ~cohort:0 ~lsn ~timestamp:i rec_op);
    Store.apply store ~lsn ~timestamp:i rec_op
  | None -> Store.flush store);
  Sim.Engine.run engine

(* The learner's chunk install (skipping LSNs already durable from a
   previous attempt), then the force its ack waits for. *)
let install_cells engine (wal, store) cells ~upto =
  Store.install_cells store ~own:(Store.durable_write_lsns_in store ~above:Lsn.zero ~upto) cells;
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine

let same_cell (a : Row.cell option) (b : Row.cell option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    x.Row.value = y.Row.value && x.version = y.version && Lsn.equal x.lsn y.lsn
  | _ -> false

let chunk_list cells n =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | c :: rest ->
      if k = n then go (List.rev cur :: acc) [ c ] 1 rest else go acc (c :: cur) (k + 1) rest
  in
  go [] [] 0 cells

let prop_bootstrap_differential =
  QCheck.Test.make
    ~name:"bootstrap: snapshot + catch-up replica == full-history replica" ~count:120
    arb_bootstrap (fun (ops, cut_pct, crash_sel) ->
      let engine = Sim.Engine.create ~seed:13 () in
      let donor = make_replica engine in
      let reference = make_replica engine in
      let joiner = make_replica engine in
      let n = List.length ops in
      let cut = 1 + (cut_pct * (n - 1) / 100) in
      (* The donor runs the whole history; the snapshot is its state at the
         cut. The reference replays the full history independently. *)
      List.iteri (fun i op -> replica_apply engine reference (i + 1) op) ops;
      List.iteri
        (fun i op -> if i + 1 <= cut then replica_apply engine donor (i + 1) op)
        ops;
      let snapshot = Store.all_cells (snd donor) in
      let upto = Lsn.make ~epoch:1 ~seq:cut in
      List.iteri
        (fun i op -> if i + 1 > cut then replica_apply engine donor (i + 1) op)
        ops;
      (* Ship the snapshot in chunks. One attempt may die mid-transfer: the
         joiner crashes (volatile state gone), recovers from its own durable
         log, and the migration restarts from chunk zero — the re-install
         must be idempotent over whatever survived. *)
      let chunks = chunk_list snapshot 5 in
      let crash_at =
        if crash_sel mod 3 = 0 || chunks = [] then None
        else Some (crash_sel mod List.length chunks)
      in
      (match crash_at with
      | Some k ->
        List.iteri
          (fun i chunk -> if i <= k then install_cells engine joiner chunk ~upto)
          chunks;
        Wal.crash (fst joiner);
        Store.crash (snd joiner);
        ignore (Store.recover_all (snd joiner));
        Sim.Engine.run engine
      | None -> ());
      List.iter (fun chunk -> install_cells engine joiner chunk ~upto) chunks;
      (* WAL catch-up from the snapshot horizon: the donor serves its
         committed writes in (upto, end] — from its log, or from SSTables
         once flush checkpoints have rolled the log past the horizon. The
         donor's tail is forced first: catch-up only ever serves committed
         writes, and commit implies the leader already forced them. *)
      Wal.force (fst donor) (fun () -> ());
      Sim.Engine.run engine;
      let tail =
        Store.committed_cells_in (snd donor) ~above:upto ~upto:(Lsn.make ~epoch:1 ~seq:n)
      in
      install_cells engine joiner tail ~upto:(Lsn.make ~epoch:1 ~seq:n);
      (* Observable equivalence with the full-history replica, tombstones
         included (they carry the version counter conditional puts see). *)
      let pp_cell = function
        | None -> "None"
        | Some (c : Row.cell) ->
          Printf.sprintf "{v=%s ver=%d lsn=%s}"
            (Option.value ~default:"<tomb>" c.Row.value)
            c.version (Lsn.to_string c.lsn)
      in
      List.for_all
        (fun k ->
          List.for_all
            (fun c ->
              let coord = (bkey k, bcol c) in
              let j = Store.get (snd joiner) coord and r = Store.get (snd reference) coord in
              let ok =
                same_cell j r && Store.read (snd joiner) coord = Store.read (snd reference) coord
              in
              if not ok then
                Printf.printf "DIFF %s.%s joiner=%s reference=%s\n" (bkey k) (bcol c)
                  (pp_cell j) (pp_cell r);
              ok)
            (List.init boot_cols Fun.id))
        (List.init boot_keys Fun.id))

(* ---------------------------------------------------------------------- *)
(* Cluster-level helpers.                                                  *)

let test_config = Chaos.default_config

(* Poll [cond] every 20 ms for up to [timeout] seconds. *)
let await engine ?(timeout = 30.0) cond =
  Option.is_some
    (Chaos.drive engine ~every:(Sim.Sim_time.ms 20)
       ~polls:(Float.to_int (Float.round (timeout *. 50.0)))
       (fun () -> if cond () then Some () else None))

let drive engine r =
  Option.value ~default:(Error Client.Timed_out) (Chaos.drive engine ~polls:2000 (fun () -> !r))

let put_sync engine client key value =
  let r = ref None in
  Client.put client key "c" ~value (fun x -> r := Some x);
  drive engine r

let get_sync engine client key =
  let r = ref None in
  Client.get client key "c" (fun x -> r := Some x);
  drive engine r

(* Keep asking the range's leader to run the migration until the membership
   change lands: a busy leader refuses and a timed-out migration aborts
   cleanly, so the kick is safe to repeat. *)
let migrate engine cluster ~range ~joiner ~remove =
  await engine ~timeout:60.0 (fun () ->
      let partition = Cluster.partition cluster in
      List.mem joiner (Partition.cohort partition ~range)
      ||
      (ignore (Cluster.request_join cluster ~range ~joiner ~remove ());
       false))

let split engine cluster ~range =
  let before = Partition.ranges (Cluster.partition cluster) in
  await engine ~timeout:60.0 (fun () ->
      Partition.ranges (Cluster.partition cluster) > before
      ||
      (ignore (Cluster.request_split cluster ~range);
       false))

(* ---------------------------------------------------------------------- *)
(* Deterministic migration: snapshot, catch-up, swap, donor retirement.    *)

let test_migration_end_to_end () =
  let engine = Sim.Engine.create ~seed:21 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  (* Seed data across every range before the topology moves. *)
  for k = 0 to 49 do
    let key = Partition.key_of_int partition (k * 2_000) in
    check_bool "seed write" true (Result.is_ok (put_sync engine client key (Printf.sprintf "v%d" k)))
  done;
  let stale_client = Cluster.new_client cluster in
  ignore (get_sync engine stale_client (Partition.key_of_int partition 0));
  let range = 0 in
  let old_members = Partition.cohort partition ~range in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let donor = List.find (fun n -> n <> leader) old_members in
  let joiner = Cluster.add_node cluster in
  check_int "new node id" test_config.Config.nodes joiner;
  check_bool "migration completes" true (migrate engine cluster ~range ~joiner ~remove:donor);
  let members = Partition.cohort partition ~range in
  check_bool "joiner swapped in" true (List.mem joiner members);
  check_bool "donor swapped out" false (List.mem donor members);
  check_int "cohort back at replication size" Config.replication
    (List.length members);
  (* The donor learns of the committed change and drops the replica. *)
  check_bool "donor retires its replica" true
    (await engine ~timeout:10.0 (fun () ->
         Node.cohort (Cluster.node cluster donor) ~range = None));
  (* The joiner is a full replica now — promoted out of learner state and
     holding the migrated data locally. *)
  (match Node.cohort (Cluster.node cluster joiner) ~range with
  | None -> Alcotest.fail "joiner hosts no replica"
  | Some c ->
    (* Promotion rides the replicated log: the joiner flips out of learner
       state when the committed [Cohort_change] reaches it on the next
       commit tick. *)
    check_bool "joiner is promoted out of learner state" true
      (await engine ~timeout:5.0 (fun () ->
           (not (Cohort.is_learner c)) && Lsn.(Cohort.cmt c > Lsn.zero)));
    let key = Partition.key_of_int partition 2_000 in
    check_bool "joiner holds migrated data" true
      (match Cohort.read_local c (key, "c") with
      | Some cell -> cell.Row.value = Some "v1"
      | None -> false));
  (* A client whose cached routing table predates the migration still reads
     and writes: the cohort's leader never moved. *)
  for k = 0 to 9 do
    let key = Partition.key_of_int partition (k * 2_000) in
    match get_sync engine stale_client key with
    | Ok Client.{ value; _ } ->
      Alcotest.(check (option string)) "stale client reads" (Some (Printf.sprintf "v%d" k)) value
    | Error _ -> Alcotest.failf "stale client read of key %d failed" (k * 2_000)
  done;
  check_bool "writes to the new cohort succeed" true
    (Result.is_ok (put_sync engine client (Partition.key_of_int partition 100) "post-migration"))

(* ---------------------------------------------------------------------- *)
(* Deterministic split: both children serve, stale clients converge.       *)

let test_split_end_to_end () =
  let engine = Sim.Engine.create ~seed:22 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  (* Populate range 0 ([0, 20000) with the default key space) densely enough
     for a median split point to exist. *)
  for k = 0 to 119 do
    let key = Partition.key_of_int partition (k * 150) in
    check_bool "seed write" true (Result.is_ok (put_sync engine client key (Printf.sprintf "v%d" k)))
  done;
  (* This client's cached layout predates the split. *)
  let stale_client = Cluster.new_client cluster in
  ignore (get_sync engine stale_client (Partition.key_of_int partition 0));
  let range = 0 in
  let parent_members = Partition.cohort partition ~range in
  let _, old_hi = Partition.range_bounds partition ~range in
  check_bool "split completes" true (split engine cluster ~range);
  check_bool "both children elect leaders" true
    (await engine ~timeout:20.0 (fun () -> Cluster.is_ready cluster));
  let child = test_config.Config.nodes in
  check_bool "child range allocated from /next_range" true
    (Partition.mem_range partition ~range:child);
  (* The children tile exactly the parent's old interval with its cohort. *)
  let _, parent_hi = Partition.range_bounds partition ~range in
  let child_lo, child_hi = Partition.range_bounds partition ~range:child in
  check_bool "parent ends where child begins" true (parent_hi = child_lo);
  check_bool "child ends at the parent's old bound" true (child_hi = old_hi);
  Alcotest.(check (list int)) "child inherits the cohort" parent_members
    (Partition.cohort partition ~range:child);
  (* Every pre-split key is still readable through a stale routing table:
     keys in the child half bounce off the parent with Wrong_range, the
     client refreshes from /layout and retries. *)
  for k = 0 to 119 do
    let key = Partition.key_of_int partition (k * 150) in
    match get_sync engine stale_client key with
    | Ok Client.{ value; _ } ->
      Alcotest.(check (option string)) "stale client reads across split"
        (Some (Printf.sprintf "v%d" k)) value
    | Error _ -> Alcotest.failf "stale read of key %d failed after split" (k * 150)
  done;
  (* Writes land on both sides of the split point. *)
  check_bool "write to parent half" true
    (Result.is_ok (put_sync engine stale_client (Partition.key_of_int partition 1) "left"));
  check_bool "write to child half" true
    (Result.is_ok
       (put_sync engine stale_client (Partition.key_of_int partition 17_999) "right"));
  check_int "post-split routing: left key" range
    (Partition.route partition (Partition.key_of_int partition 1));
  check_int "post-split routing: right key" child
    (Partition.route partition (Partition.key_of_int partition 17_999))

(* ---------------------------------------------------------------------- *)
(* Exactly-once across membership changes: a serial writer must never see   *)
(* its writes double-applied while a migration and a split commit.          *)

let test_epoch_change_exactly_once () =
  let engine = Sim.Engine.create ~seed:23 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let key = Partition.key_of_int partition 5_000 (* range 0 *) in
  let client = Cluster.new_client cluster in
  (* Populate range 0 beyond the hot key so the later split has a median. *)
  for k = 0 to 59 do
    check_bool "seed write" true
      (Result.is_ok
         (put_sync engine client (Partition.key_of_int partition (k * 300)) "seed"))
  done;
  let probes =
    Chaos.start_probes ~writer:(fun _ -> client) cluster ~keys:[ key ]
      ~write_period:(Sim.Sim_time.ms 40) ~read_period:(Sim.Sim_time.ms 45)
  in
  Sim.Engine.run_for engine (Sim.Sim_time.ms 500);
  (* Swap a follower out for a fresh node, then split the range — both
     membership changes commit under the live write stream. *)
  let range = 0 in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let donor =
    List.find (fun n -> n <> leader) (Partition.cohort partition ~range)
  in
  let joiner = Cluster.add_node cluster in
  check_bool "migration under load completes" true
    (migrate engine cluster ~range ~joiner ~remove:donor);
  check_bool "split under load completes" true (split engine cluster ~range);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Chaos.stop_probes probes;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  check_bool "load spanned the changes" true (Chaos.acked probes > 30);
  (* No lost or double-applied write, by the final version and by the
     committed log of every range, and linearizable strong reads. *)
  let violations = ref [] in
  Chaos.check cluster probes (fun invariant detail ->
      violations := (invariant, detail) :: !violations);
  Alcotest.(check (list (pair string string))) "no violations" [] (List.rev !violations)

(* ---------------------------------------------------------------------- *)
(* Write phases: one sample per client write its own leader committed, none *)
(* for the metadata records that commit in between or for the writes a      *)
(* takeover rebuilt and committed. perfbench's committed_writes counter     *)
(* reads this count.                                                        *)

let test_write_phases_count_client_writes () =
  let engine = Sim.Engine.create ~seed:24 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  let range = 0 in
  let puts = ref 0 in
  let put_keys keys =
    List.iter
      (fun k ->
        let key = Partition.key_of_int partition k in
        check_int "key in the range" range (Partition.route partition key);
        check_bool "put acked" true (Result.is_ok (put_sync engine client key "v"));
        incr puts)
      keys
  in
  put_keys (List.init 40 (fun k -> k * 150));
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let donor = List.find (fun n -> n <> leader) (Partition.cohort partition ~range) in
  let joiner = Cluster.add_node cluster in
  check_bool "migration completes" true (migrate engine cluster ~range ~joiner ~remove:donor);
  put_keys (List.init 40 (fun k -> (k * 150) + 1));
  check_bool "split completes" true (split engine cluster ~range);
  (* The split point is the median key, so the lowest keys stay here. *)
  put_keys (List.init 20 (fun k -> (k * 150) + 2));
  (* Leader crash with writes in flight: the followers log them but their
     acks never reach the leader, so the next leader's takeover rebuilds
     and commits them, and answers the client's retries. *)
  let net = Cluster.net cluster in
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let followers = List.filter (fun n -> n <> leader) (Partition.cohort partition ~range) in
  List.iter (fun f -> Sim.Network.partition_oneway net ~src:f ~dst:leader) followers;
  let in_flight =
    List.init 5 (fun k ->
        let key = Partition.key_of_int partition ((k * 150) + 3) in
        check_int "key in the range" range (Partition.route partition key);
        let r = ref None in
        Client.put client key "c" ~value:"v" (fun x -> r := Some x);
        r)
  in
  Sim.Engine.run_for engine (Sim.Sim_time.ms 200);
  check_int "no in-flight write committed at the old leader" !puts
    (Sim.Metrics.Write_phases.count (Cluster.write_phases cluster));
  Cluster.crash_node cluster leader;
  List.iter (fun f -> Sim.Network.heal_oneway net ~src:f ~dst:leader) followers;
  List.iter
    (fun r -> check_bool "in-flight put acked by the next leader" true (Result.is_ok (drive engine r)))
    in_flight;
  check_bool "range 0 has a new leader" true
    (Cluster.leader_of cluster ~range <> Some leader);
  put_keys (List.init 20 (fun k -> (k * 150) + 4));
  check_int "one write-phase sample per put its own leader committed" !puts
    (Sim.Metrics.Write_phases.count (Cluster.write_phases cluster))

(* ---------------------------------------------------------------------- *)
(* The read-serve counters and write phases are the cluster's, not a        *)
(* replica's: migrating out a follower that served timeline reads, or an     *)
(* ex-leader that led writes, takes none of its counts away.                 *)

let test_counters_survive_retirement () =
  let engine = Sim.Engine.create ~seed:25 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  let range = 0 in
  let key = Partition.key_of_int partition 7 in
  check_int "key in the range" range (Partition.route partition key);
  for _ = 1 to 10 do
    check_bool "put acked" true (Result.is_ok (put_sync engine client key "v"))
  done;
  (* Timeline reads rotate over the replicas, so every follower serves some. *)
  for _ = 1 to 30 do
    let r = ref None in
    Client.get client ~consistent:false key "c" (fun x -> r := Some x);
    check_bool "timeline read" true (Result.is_ok (drive engine r))
  done;
  let follower_reads () = (Cluster.read_serve_stats cluster).Cluster.follower_timeline in
  let writes () = Sim.Metrics.Write_phases.count (Cluster.write_phases cluster) in
  let reads0 = follower_reads () and writes0 = writes () in
  check_bool "followers served timeline reads" true (reads0 > 0);
  check_int "the leader led every put" 10 writes0;
  let leader = Option.get (Cluster.leader_of cluster ~range) in
  let follower = List.find (fun n -> n <> leader) (Partition.cohort partition ~range) in
  let joiner = Cluster.add_node cluster in
  check_bool "follower migrated out" true
    (migrate engine cluster ~range ~joiner ~remove:follower);
  check_int "follower reads kept after its replica retired" reads0 (follower_reads ());
  (* The leader that led the puts loses its term, comes back as a follower,
     and is migrated out too. The crash waits for the joiner to learn that
     the membership change committed. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 1);
  Cluster.crash_node cluster leader;
  check_bool "a new leader" true
    (await engine (fun () ->
         match Cluster.leader_of cluster ~range with Some n -> n <> leader | None -> false));
  Cluster.restart_node cluster leader;
  let cohort () = Option.get (Node.cohort (Cluster.node cluster leader) ~range) in
  check_bool "the old leader follows" true
    (await engine (fun () -> Cohort.role (cohort ()) = Cohort.Follower));
  let joiner = Cluster.add_node cluster in
  check_bool "old leader migrated out" true
    (migrate engine cluster ~range ~joiner ~remove:leader);
  check_bool "its replica retired" true (Node.cohort (Cluster.node cluster leader) ~range = None);
  check_int "write phases kept after the leader's replica retired" writes0 (writes ());
  check_int "follower reads still kept" reads0 (follower_reads ())

(* The leased-vs-unleased switch is the cluster's: a split child hosted
   after [set_lease_enabled false] serves strong reads through the quorum
   guard, not a lease. *)
let test_lease_switch_reaches_split_child () =
  let engine = Sim.Engine.create ~seed:26 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  let range = 0 in
  let keys = List.init 40 (fun k -> Partition.key_of_int partition (k * 150)) in
  List.iter
    (fun key ->
      check_int "key in the range" range (Partition.route partition key);
      check_bool "put acked" true (Result.is_ok (put_sync engine client key "v")))
    keys;
  Cluster.set_lease_enabled cluster false;
  check_bool "split completes" true (split engine cluster ~range);
  (* The split point is the median key, so the highest key moved. *)
  let key = List.nth keys 39 in
  let child = Partition.route partition key in
  check_bool "the key is the child's" true (child <> range);
  check_bool "the child has a leader" true
    (await engine (fun () -> Cluster.leader_of cluster ~range:child <> None));
  let before = Cluster.read_serve_stats cluster in
  for _ = 1 to 10 do
    match get_sync engine client key with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "strong read on the child failed"
  done;
  let after = Cluster.read_serve_stats cluster in
  check_int "no strong read served under a lease" before.Cluster.leased after.Cluster.leased;
  check_bool "strong reads guarded" true (after.Cluster.guarded >= before.Cluster.guarded + 10)

(* ---------------------------------------------------------------------- *)
(* The chaos battery: scale-out events racing crashes, partitions, loss.    *)

(* Aggregated across seeds: individual schedules may keep aborting a
   migration, but the battery as a whole must actually exercise completed
   joins and splits under fire, or it proves nothing about them. *)
let total_joins = ref 0
let total_splits = ref 0

let run_chaos_seed seed =
  let engine = Sim.Engine.create ~seed:(1000 + seed) () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then
    Alcotest.failf "seed %d: cluster never became ready" seed;
  let net = Cluster.net cluster in
  let partition = Cluster.partition cluster in
  let failure = Sim.Failure.create engine in
  let keys = List.map (Partition.key_of_int partition) [ 3; 5_003; 40_007 ] in
  let probes =
    Chaos.start_probes cluster ~keys ~write_period:(Sim.Sim_time.ms 60)
      ~read_period:(Sim.Sim_time.ms 45)
  in
  (* The scale-out events under attack. The joiner arrives at 0.5 s; the
     migration (of the range owning the first written key) and a split (of
     the range owning the second) are kicked repeatedly — the crash and
     partition chaos below keeps hitting the source, the joiner, and the
     leader mid-transfer, so attempts abort and restart throughout. *)
  let joiner = Cluster.add_node cluster in
  let mig_range = Partition.route partition (List.nth keys 0) in
  let split_range = Partition.route partition (List.nth keys 1) in
  let ranges_before = Partition.ranges partition in
  let kicking = ref true in
  let rec kick_join () =
    if !kicking && not (List.mem joiner (Partition.cohort partition ~range:mig_range))
    then begin
      let members = Partition.cohort partition ~range:mig_range in
      let leader = Cluster.leader_of cluster ~range:mig_range in
      (match List.filter (fun n -> Some n <> leader) members with
      | d :: _ -> ignore (Cluster.request_join cluster ~range:mig_range ~joiner ~remove:d ())
      | [] -> ());
      ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 400) kick_join)
    end
  in
  let rec kick_split () =
    if !kicking && Partition.ranges partition = ranges_before then begin
      ignore (Cluster.request_split cluster ~range:split_range);
      ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 400) kick_split)
    end
  in
  ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 500) kick_join);
  ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.ms 1500) kick_split);
  (* The gauntlet, aimed at the migration: crash/restart chaos covers the
     joiner plus a rotating pair of original nodes (the migration source and
     the leader are among them across seeds), with randomized pair
     partitions and lighter lossy/duplicating links over the whole grown
     cluster. *)
  let all_nodes = List.init (test_config.Config.nodes + 1) Fun.id in
  let until = Sim.Sim_time.at_us 8_000_000 in
  Chaos.crash_chaos failure ~until
    (List.filteri
       (fun i _ -> i = joiner || i = seed mod joiner || i = (seed + 2) mod joiner)
       (Cluster.failure_targets cluster));
  Chaos.partition_chaos failure net ~nodes:all_nodes ~until;
  Chaos.lossy_chaos ~rate:0.06 failure net ~nodes:all_nodes ~until;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 9);
  (* Stop the load, heal everything, and let the cluster quiesce. *)
  kicking := false;
  Chaos.stop_probes probes;
  Chaos.heal cluster;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 10);
  if List.mem joiner (Partition.cohort partition ~range:mig_range) then incr total_joins;
  if Partition.ranges partition > ranges_before then incr total_splits;
  (* Whatever the chaos left of the topology, it must be coherent and hold
     every acked write exactly once, over whatever ranges now exist. *)
  let violations = ref [] in
  Chaos.check cluster probes (fun invariant detail ->
      violations := (invariant, detail) :: !violations);
  if !violations <> [] then begin
    Format.printf "@.scaleout seed %d injection log:@.%a@.%a@." seed
      Sim.Failure.pp_injections failure Cluster.pp_status cluster;
    List.iter
      (fun (invariant, detail) -> Format.printf "  %s: %s@." invariant detail)
      (List.rev !violations);
    Alcotest.failf "seed %d: %d invariant violation(s)" seed (List.length !violations)
  end;
  let history = Chaos.history probes in
  check_bool
    (Printf.sprintf "seed %d: load was substantial" seed)
    true
    (History.writes history > 100 && History.reads history > 100);
  (seed, History.fingerprint history)

let chaos_seeds () =
  match Sys.getenv_opt "NEMESIS_SEEDS" with
  | Some s -> (
    match
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
    with
    | [] ->
      Alcotest.failf "NEMESIS_SEEDS=%S contains no seeds (expected e.g. \"15\" or \"3,7,21\")" s
    | seeds -> seeds)
  | None -> List.init 20 (fun i -> i + 1)

(* The default seeds' history fingerprints. Each run is a pure function of
   its seed, so a change that must not move the model (a refactor, a speed-up)
   must leave every one of them as it is; a change that moves the model on
   purpose re-pins them and says why. *)
let pinned_fingerprints =
  [
    (1, "39b80d82a3535dd6084670df40b458a1");
    (2, "3524e45d5ea0b1569212c1a2c41c0e37");
    (3, "f2da4fb395945fc370e1985a774acf1e");
    (4, "9938b771119c1ec7508f34d43e0fbebe");
    (5, "c6b87cc843801583e135e8a9b624375b");
    (6, "7a2067a542633c89d03c646d448e2c9d");
    (7, "56243c41140ce4e9a392450bf3fc302d");
    (8, "be9b7c4d470851d407211969cdacb68d");
    (9, "38198fa8354f7509e19f47930d82b4b0");
    (10, "b17a65093a60498fccbfdccd964925af");
    (11, "31ed92180d211f0173b4f70e906f8a1b");
    (12, "67fe38e1c5ecc2970a5d435b83f7c50f");
    (13, "b837b74f5cff133f4a8e346edc416345");
    (14, "e2c79b5a10323bf6985b273b4b9a7126");
    (15, "3d30fc80f4e324a73cea49c0da17d3e5");
    (16, "46f004a88d6d2b730a70051629ed65c7");
    (17, "b501deb19bdfbaf4c0a65e62cf074053");
    (18, "10e332f7a065b1be0e99457da574542b");
    (19, "8c2f847b5ee05cec542c66de3c35e574");
    (20, "980f834c4beb57585bb572624a169450");
  ]

let test_chaos_scaleout () =
  let seeds = chaos_seeds () in
  let fingerprints = List.map run_chaos_seed seeds in
  Format.printf "scaleout chaos: %d/%d joins and %d/%d splits completed under fire@."
    !total_joins (List.length seeds) !total_splits (List.length seeds);
  List.iter (fun (seed, fp) -> Format.printf "  seed %d fingerprint %s@." seed fp) fingerprints;
  if List.length seeds > 4 then begin
    check_bool "some migrations completed under chaos" true (!total_joins > 0);
    check_bool "some splits completed under chaos" true (!total_splits > 0)
  end;
  if Sys.getenv_opt "NEMESIS_SEEDS" = None then
    Alcotest.(check (list (pair int string)))
      "history fingerprints equal the pinned ones" pinned_fingerprints fingerprints

(* ---------------------------------------------------------------------- *)
(* Leader-term teardown: whichever path ends a leader's term, nothing the   *)
(* term started outlives it into the next.                                  *)

(* A ready cluster with range 0 seeded, its leader and the leader's replica. *)
let teardown_cluster ~seed =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  check_bool "ready" true (Cluster.run_until_ready cluster);
  let partition = Cluster.partition cluster in
  let client = Cluster.new_client cluster in
  for k = 0 to 19 do
    let key = Partition.key_of_int partition (k * 500) in
    check_bool "seed write" true (Result.is_ok (put_sync engine client key "v"))
  done;
  let leader = Option.get (Cluster.leader_of cluster ~range:0) in
  (* The max-lst rule breaks ties by cohort order, so a re-election among
     caught-up replicas returns the primary. *)
  check_int "the primary leads" (List.hd (Partition.cohort partition ~range:0)) leader;
  let cohort = Option.get (Node.cohort (Cluster.node cluster leader) ~range:0) in
  (engine, cluster, client, leader, cohort)

(* The range's /leader znode vanishes, as when the service loses it; every
   replica watching it starts an election. *)
let delete_leader_znode cluster ~range =
  let zk = Cluster.zk_server cluster in
  let session = Coord.Zk_server.open_session zk in
  ignore (Coord.Zk_server.delete_node zk ~session ~path:(Printf.sprintf "/ranges/%d/leader" range));
  Coord.Zk_server.close_session zk ~session

(* A leader that loses its /leader znode mid-split runs an election and
   wins it again. The split died with the first term, so the second term's
   writes must not park behind it. *)
let test_lost_znode_ends_split () =
  let engine, cluster, client, leader, cohort = teardown_cluster ~seed:23 in
  let members = Partition.cohort (Cluster.partition cluster) ~range:0 in
  (* With the replicas' coordination links cut, the split's first ZK call is
     never sent and the deletion's watch events wait for the links. *)
  List.iter (fun n -> Cluster.set_zk_reachable cluster n false) members;
  check_bool "split starts" true (Cohort.request_split cohort);
  delete_leader_znode cluster ~range:0;
  (* The leader hears first and runs its election; the others join it. *)
  Cluster.set_zk_reachable cluster leader true;
  Sim.Engine.run_for engine (Sim.Sim_time.ms 20);
  check_bool "the leader left its term" true (Cohort.role cohort <> Cohort.Leader);
  List.iter (fun n -> Cluster.set_zk_reachable cluster n true) members;
  check_bool "re-elected and reopened" true
    (await engine ~timeout:5.0 (fun () -> Cohort.is_open cohort));
  check_bool "writes are served in the new term" true
    (Result.is_ok
       (put_sync engine client (Partition.key_of_int (Cluster.partition cluster) 7) "after"))

(* A split's drain outlives a term. The leader starts a split while a write
   it cannot commit (its followers' acks are cut) holds the split in its
   drain. It steps down, wins the election at once, and starts a second
   split just before the first split's next drain poll. Only the live
   term's split may log a [Split] record: the first split's range id and
   split point were taken in the ended term, and the point predates the
   write. *)
let test_split_of_ended_term_logs_nothing () =
  let engine, cluster, client, leader, cohort = teardown_cluster ~seed:23 in
  let partition = Cluster.partition cluster in
  let net = Cluster.net cluster in
  let zk = Cluster.zk_server cluster in
  let followers = List.filter (fun n -> n <> leader) (Partition.cohort partition ~range:0) in
  List.iter (fun f -> Sim.Network.partition_oneway net ~src:f ~dst:leader) followers;
  Client.put client (Partition.key_of_int partition 3) "c" ~value:"held" (fun _ -> ());
  Sim.Engine.run_for engine (Sim.Sim_time.ms 2);
  let first_child = Partition.ranges partition in
  check_bool "first split starts" true (Cohort.request_split cohort);
  (* Its last znode is created: its drain starts one reply hop later and
     polls every 50 ms while the held write is queued. *)
  let rec await_znode () =
    if not (Coord.Zk_server.exists zk ~path:(Printf.sprintf "/ranges/%d/epoch" first_child))
    then begin
      Sim.Engine.run_for engine (Sim.Sim_time.us 20);
      await_znode ()
    end
  in
  await_znode ();
  let drain_started = Sim.Engine.now engine in
  Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
  Cohort.handle_peer cohort ~src:(List.hd followers) ~sent_at:(Sim.Engine.now engine)
    (Message.Takeover_query { range = 0; epoch = Cohort.epoch cohort + 1 });
  check_bool "stepped down" true (Cohort.role cohort = Cohort.Follower);
  List.iter (fun f -> Sim.Network.heal_oneway net ~src:f ~dst:leader) followers;
  delete_leader_znode cluster ~range:0;
  check_bool "re-elected and reopened" true
    (await engine ~timeout:0.04 (fun () -> Cohort.is_open cohort));
  Sim.Engine.run_for engine
    (Sim.Sim_time.diff
       (Sim.Sim_time.add drain_started (Sim.Sim_time.ms 49))
       (Sim.Engine.now engine));
  check_bool "second split starts" true (Cohort.request_split cohort);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  let splits =
    List.filter_map
      (fun (r : Storage.Log_record.t) ->
        match r.entry with
        | Storage.Log_record.Write { op = Storage.Log_record.Split { new_range; _ }; _ }
          when r.cohort = 0 ->
          Some new_range
        | _ -> None)
      (Storage.Wal.durable_records (Node.wal (Cluster.node cluster leader)))
  in
  Alcotest.(check (list int)) "one split, the live term's" [ first_child + 1 ] splits;
  check_bool "writes are served" true
    (Result.is_ok (put_sync engine client (Partition.key_of_int partition 7) "after"))

(* A split whose coordination call is lost parks writes only until the
   membership watchdog's deadline. The leader's link is cut for 100 ms,
   under half the session timeout, so it keeps its term while the split's
   first call is dropped; its chain never calls back. *)
let test_lost_split_call_times_out () =
  let engine, cluster, client, leader, cohort = teardown_cluster ~seed:26 in
  let partition = Cluster.partition cluster in
  Cluster.set_zk_reachable cluster leader false;
  check_bool "split starts" true (Cohort.request_split cohort);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 100);
  Cluster.set_zk_reachable cluster leader true;
  check_bool "a write to range 0 is acked" true
    (Result.is_ok (put_sync engine client (Partition.key_of_int partition 7) "after"));
  check_bool "still the leader" true (Cohort.role cohort = Cohort.Leader);
  check_bool "a second split starts" true (Cohort.request_split cohort);
  Sim.Engine.run_for engine (Sim.Sim_time.sec 3);
  let splits =
    List.filter
      (fun (r : Storage.Log_record.t) ->
        match r.entry with
        | Storage.Log_record.Write { op = Storage.Log_record.Split _; _ } -> r.cohort = 0
        | _ -> false)
      (Storage.Wal.durable_records (Node.wal (Cluster.node cluster leader)))
  in
  check_int "one split logged" 1 (List.length splits)

(* A leader holding a follower in its blocked final catch-up round is
   deposed, then elected again. That round belonged to the old term: the
   follower is down, so only the old round's 2 s grace timer would ever
   clear it, and the new term's writes must not wait for it. *)
let test_stepdown_ends_final_round () =
  let engine, cluster, client, leader, cohort = teardown_cluster ~seed:24 in
  let partition = Cluster.partition cluster in
  let voter, down =
    match List.filter (fun n -> n <> leader) (Partition.cohort partition ~range:0) with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "range 0 has three replicas"
  in
  Cluster.crash_node cluster down;
  let deposed_at = Sim.Engine.now engine in
  Cohort.handle_peer cohort ~src:down ~sent_at:deposed_at
    (Message.Catchup_request { range = 0; from = down; cmt = Lsn.zero });
  Cohort.handle_peer cohort ~src:voter ~sent_at:deposed_at
    (Message.Takeover_query { range = 0; epoch = Cohort.epoch cohort + 1 });
  check_bool "stepped down" true (Cohort.role cohort = Cohort.Follower);
  delete_leader_znode cluster ~range:0;
  check_bool "re-elected and reopened" true
    (await engine ~timeout:1.0 (fun () -> Cohort.is_open cohort));
  check_bool "a write commits" true
    (Result.is_ok (put_sync engine client (Partition.key_of_int partition 7) "after"));
  check_bool "before the old round's grace period lapses" true
    (Sim.Sim_time.span_compare
       (Sim.Sim_time.diff (Sim.Engine.now engine) deposed_at)
       (Sim.Sim_time.sec 1)
     < 0)

(* Session loss and retirement end an in-flight migration the way a
   stepdown does: through an abort the trace records, with its reason. *)
let test_teardown_traces_migration_abort () =
  let _engine, cluster, _client, leader, cohort = teardown_cluster ~seed:25 in
  let partition = Cluster.partition cluster in
  let abort_reasons () =
    List.map
      (fun e -> e.Sim.Trace.detail)
      (Sim.Trace.find (Cluster.trace cluster) ~tag:"migration_abort")
  in
  let start_migration range cohort =
    let members = Partition.cohort partition ~range in
    let joiner =
      List.find (fun n -> not (List.mem n members)) (List.init test_config.Config.nodes Fun.id)
    in
    let remove = List.find (fun n -> Some n <> Cluster.leader_of cluster ~range) members in
    check_bool "migration starts" true (Cohort.request_join cohort ~joiner ~remove ());
    check_bool "migrating" true (Cohort.migrating cohort);
    joiner
  in
  let j0 = start_migration 0 cohort in
  Cohort.zk_session_expired cohort;
  check_bool "session loss ends the migration" false (Cohort.migrating cohort);
  let leader1 = Option.get (Cluster.leader_of cluster ~range:1) in
  let cohort1 = Option.get (Node.cohort (Cluster.node cluster leader1) ~range:1) in
  let j1 = start_migration 1 cohort1 in
  Cohort.retire cohort1;
  check_bool "retirement ends the migration" false (Cohort.migrating cohort1);
  Alcotest.(check (list string))
    "both aborts traced with their reasons"
    [
      Printf.sprintf "r0 n%d joiner=n%d session expired" leader j0;
      Printf.sprintf "r1 n%d joiner=n%d replica retired" leader1 j1;
    ]
    (abort_reasons ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_routing_invariants;
    QCheck_alcotest.to_alcotest prop_layout_convergence;
    QCheck_alcotest.to_alcotest prop_bootstrap_differential;
    Alcotest.test_case "migration: snapshot + catch-up + swap + retire" `Slow
      test_migration_end_to_end;
    Alcotest.test_case "split: both children serve, stale clients converge" `Slow
      test_split_end_to_end;
    Alcotest.test_case "exactly-once across migration and split" `Slow
      test_epoch_change_exactly_once;
    Alcotest.test_case "chaos: crashes + partitions + loss during scale-out" `Slow
      test_chaos_scaleout;
    Alcotest.test_case "teardown: a lost /leader znode ends the term's split" `Slow
      test_lost_znode_ends_split;
    Alcotest.test_case "teardown: a split started in an ended term logs nothing" `Slow
      test_split_of_ended_term_logs_nothing;
    Alcotest.test_case "teardown: stepdown ends the term's final catch-up round" `Slow
      test_stepdown_ends_final_round;
    Alcotest.test_case "teardown: session loss and retirement trace migration_abort" `Slow
      test_teardown_traces_migration_abort;
    Alcotest.test_case "split: a lost coordination call times out" `Slow
      test_lost_split_call_times_out;
    Alcotest.test_case "write phases: one sample per client write, none per meta record"
      `Slow test_write_phases_count_client_writes;
    Alcotest.test_case "counters: retiring a replica keeps its reads and write phases" `Slow
      test_counters_survive_retirement;
    Alcotest.test_case "lease switch: a split child hosted later reads it" `Slow
      test_lease_switch_reaches_split_child;
  ]
