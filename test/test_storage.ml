(* Tests for the storage engine: LSNs, memtable, bloom, SSTables,
   compaction, WAL (group commit, crash semantics, rollover), skipped-LSN
   lists, and store recovery. *)

module Lsn = Storage.Lsn
module Row = Storage.Row
module Memtable = Storage.Memtable
module Sstable = Storage.Sstable
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module Store = Storage.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))

let lsn e s = Lsn.make ~epoch:e ~seq:s

let cell ?(value = Some "v") ?(version = 1) ?(timestamp = 0) l : Row.cell =
  { value; version; lsn = l; timestamp; txn_ts = None }

(* --- LSN ---------------------------------------------------------------- *)

let test_lsn_ordering () =
  check_bool "seq order" true Lsn.(lsn 1 2 < lsn 1 3);
  check_bool "epoch dominates" true Lsn.(lsn 1 100 < lsn 2 1);
  check_bool "equal" true (Lsn.equal (lsn 2 5) (lsn 2 5));
  check_bool "zero smallest" true Lsn.(Lsn.zero < lsn 1 1)

let test_lsn_next_and_epoch () =
  let l = lsn 1 21 in
  check_bool "next" true (Lsn.equal (Lsn.next l) (lsn 1 22));
  check_bool "with_epoch keeps seq" true (Lsn.equal (Lsn.with_epoch ~epoch:2 l) (lsn 2 21));
  Alcotest.(check string) "pp" "1.21" (Lsn.to_string l)

let prop_lsn_compare_total_order =
  QCheck.Test.make ~name:"lsn compare is a total order consistent with pairs" ~count:300
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((e1, s1), (e2, s2)) ->
      let a = lsn e1 s1 and b = lsn e2 s2 in
      let c = Lsn.compare a b in
      if e1 < e2 then c < 0
      else if e1 > e2 then c > 0
      else compare s1 s2 = compare c 0 || c = compare s1 s2 || compare c 0 = compare s1 s2)

(* --- transaction payloads ------------------------------------------------ *)

(* The encoders' formats as they were written with Printf: stored cells and
   the decoders depend on them byte for byte. *)
let printf_lsn (l : Lsn.t) = Printf.sprintf "%d.%d" l.epoch l.seq

let printf_intent (i : Row.intent) =
  Printf.sprintf "%s%c%s%c%s%c%s" i.i_txn '\x01' i.i_anchor '\x01' (printf_lsn i.i_fence) '\x01'
    (match i.i_value with Some v -> "v" ^ v | None -> "d")

let printf_decision ~commit ~ts = Printf.sprintf "%c%c%d" (if commit then 'c' else 'a') '\x01' ts

let prop_payloads_match_printf =
  QCheck.Test.make ~name:"row: intent and decision payloads = their printf formats" ~count:500
    QCheck.(quad (pair string string) (pair int int) (option string) (pair bool int))
    (fun ((txn, anchor), (epoch, seq), value, (commit, ts)) ->
      let i =
        { Row.i_txn = txn; i_anchor = anchor; i_fence = lsn epoch seq; i_value = value }
      in
      let intent = printf_intent i and decision = printf_decision ~commit ~ts in
      String.equal (Lsn.to_string i.i_fence) (printf_lsn i.i_fence)
      && String.equal (Row.encode_intent i) intent
      && Row.intent_length i = String.length intent
      && String.equal (Row.encode_decision ~commit ~ts) decision
      && Row.decision_length ~ts = String.length decision)

(* --- memtable ------------------------------------------------------------ *)

let test_memtable_put_get () =
  let m = Memtable.create () in
  Memtable.put m ("k1", "c") (cell ~value:(Some "a") (lsn 1 1));
  Memtable.put m ("k2", "c") (cell ~value:(Some "b") (lsn 1 2));
  check_str_opt "k1" (Some "a")
    (Option.bind (Memtable.get m ("k1", "c")) (fun c -> c.Row.value));
  check_str_opt "k2" (Some "b")
    (Option.bind (Memtable.get m ("k2", "c")) (fun c -> c.Row.value));
  check_int "size" 2 (Memtable.size m)

let test_memtable_overwrite_default () =
  let m = Memtable.create () in
  Memtable.put m ("k", "c") (cell ~value:(Some "old") (lsn 1 5));
  Memtable.put m ("k", "c") (cell ~value:(Some "new") (lsn 1 2));
  (* Default policy: incoming always wins (LSN-ordered apply upstream). *)
  check_str_opt "incoming wins" (Some "new")
    (Option.bind (Memtable.get m ("k", "c")) (fun c -> c.Row.value))

let test_memtable_newer_guard () =
  let m = Memtable.create () in
  Memtable.put m ("k", "c") (cell ~value:(Some "newer") ~timestamp:10 (lsn 1 5));
  Memtable.put m ~newer:Row.newer_by_timestamp ("k", "c")
    (cell ~value:(Some "older") ~timestamp:5 (lsn 1 9));
  check_str_opt "older timestamp rejected" (Some "newer")
    (Option.bind (Memtable.get m ("k", "c")) (fun c -> c.Row.value))

let test_memtable_sorted_iteration () =
  let m = Memtable.create () in
  List.iter
    (fun k -> Memtable.put m (k, "c") (cell (lsn 1 1)))
    [ "b"; "a"; "d"; "c" ];
  let keys = List.map (fun ((k, _), _) -> k) (Memtable.to_sorted_list m) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d" ] keys

let test_memtable_max_lsn_and_clear () =
  let m = Memtable.create () in
  Memtable.put m ("a", "c") (cell (lsn 1 7));
  Memtable.put m ("b", "c") (cell (lsn 1 3));
  check_bool "max lsn" true (Lsn.equal (Memtable.max_lsn m) (lsn 1 7));
  Memtable.clear m;
  check_bool "empty" true (Memtable.is_empty m);
  check_int "bytes reset" 0 (Memtable.approx_bytes m)

let prop_memtable_matches_model =
  QCheck.Test.make ~name:"memtable behaves like a map (model-based)" ~count:100
    QCheck.(list (pair (pair (string_of_size (Gen.return 2)) (string_of_size (Gen.return 1))) small_nat))
    (fun ops ->
      let m = Memtable.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (coord, v) ->
          let c = cell ~value:(Some (string_of_int v)) (lsn 1 i) in
          Memtable.put m coord c;
          Hashtbl.replace model coord (string_of_int v))
        ops;
      Hashtbl.fold
        (fun coord expected acc ->
          acc
          && Option.bind (Memtable.get m coord) (fun c -> c.Row.value) = Some expected)
        model true
      && Memtable.size m = Hashtbl.length model)

(* --- bloom --------------------------------------------------------------- *)

let test_bloom_no_false_negatives () =
  let b = Storage.Bloom.create ~expected:100 () in
  let keys = List.init 100 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter (Storage.Bloom.add b) keys;
  List.iter (fun k -> check_bool k true (Storage.Bloom.mem b k)) keys

let test_bloom_filters_most_absent () =
  let b = Storage.Bloom.create ~expected:1000 ~false_positive_rate:0.01 () in
  for i = 0 to 999 do
    Storage.Bloom.add b (Printf.sprintf "present-%d" i)
  done;
  let fp = ref 0 in
  for i = 0 to 999 do
    if Storage.Bloom.mem b (Printf.sprintf "absent-%d" i) then incr fp
  done;
  check_bool (Printf.sprintf "fp rate %d/1000" !fp) true (!fp < 50)

let prop_bloom_never_false_negative =
  QCheck.Test.make ~name:"bloom: added keys always found" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (string_of_size (Gen.int_range 1 10)))
    (fun keys ->
      let b = Storage.Bloom.create ~expected:(List.length keys) () in
      List.iter (Storage.Bloom.add b) keys;
      List.for_all (Storage.Bloom.mem b) keys)

(* --- sstable -------------------------------------------------------------- *)

let sorted_entries n =
  List.init n (fun i ->
      ((Printf.sprintf "k%04d" i, "c"), cell ~value:(Some (string_of_int i)) (lsn 1 (i + 1))))

let test_sstable_build_get () =
  let t = Sstable.build (sorted_entries 100) in
  check_int "count" 100 (Sstable.count t);
  check_str_opt "hit" (Some "42")
    (Option.bind (Sstable.get t ("k0042", "c")) (fun c -> c.Row.value));
  check_bool "miss" true (Sstable.get t ("k9999", "c") = None);
  check_bool "miss col" true (Sstable.get t ("k0042", "z") = None)

let test_sstable_lsn_tags () =
  let t = Sstable.build (sorted_entries 10) in
  check_bool "min" true (Lsn.equal (Sstable.min_lsn t) (lsn 1 1));
  check_bool "max" true (Lsn.equal (Sstable.max_lsn t) (lsn 1 10));
  check_str_opt "min key" (Some "k0000") (Sstable.min_key t);
  check_str_opt "max key" (Some "k0009") (Sstable.max_key t)

let test_sstable_rejects_unsorted () =
  let entries = [ (("b", "c"), cell (lsn 1 1)); (("a", "c"), cell (lsn 1 2)) ] in
  Alcotest.check_raises "unsorted input" (Invalid_argument "Sstable.build: entries not strictly ascending")
    (fun () -> ignore (Sstable.build entries))

let test_sstable_lsn_range_extraction () =
  let t = Sstable.build (sorted_entries 20) in
  let cells = Sstable.cells_with_lsn_in t ~above:(lsn 1 5) ~upto:(lsn 1 8) in
  check_int "three cells in (5,8]" 3 (List.length cells);
  check_bool "ascending lsn" true
    (List.for_all2
       (fun (_, (a : Row.cell)) (_, (b : Row.cell)) -> Lsn.(a.lsn <= b.lsn))
       (List.filteri (fun i _ -> i < 2) cells)
       (List.tl cells))

let prop_sstable_lookup_matches_input =
  QCheck.Test.make ~name:"sstable: every built entry is retrievable" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let entries = sorted_entries n in
      let t = Sstable.build entries in
      List.for_all
        (fun (coord, (c : Row.cell)) ->
          match Sstable.get t coord with
          | Some got -> got.Row.value = c.value
          | None -> false)
        entries)

(* --- compaction ------------------------------------------------------------ *)

let test_compaction_newest_wins () =
  let t1 = Sstable.build [ (("k", "c"), cell ~value:(Some "old") (lsn 1 1)) ] in
  let t2 = Sstable.build [ (("k", "c"), cell ~value:(Some "new") (lsn 1 9)) ] in
  let merged = Storage.Compaction.merge ~newer:Row.newer_by_lsn [ t1; t2 ] in
  check_int "one entry" 1 (Sstable.count merged);
  check_str_opt "newest" (Some "new")
    (Option.bind (Sstable.get merged ("k", "c")) (fun c -> c.Row.value))

let test_compaction_drops_tombstones () =
  let t1 = Sstable.build [ (("k", "c"), cell ~value:(Some "x") (lsn 1 1)) ] in
  let t2 = Sstable.build [ (("k", "c"), Row.tombstone ~version:2 ~lsn:(lsn 1 5) ~timestamp:0) ] in
  let merged = Storage.Compaction.merge ~newer:Row.newer_by_lsn ~drop_tombstones:true [ t1; t2 ] in
  check_int "tombstone gone" 0 (Sstable.count merged);
  let kept = Storage.Compaction.merge ~newer:Row.newer_by_lsn [ t1; t2 ] in
  check_int "tombstone kept without flag" 1 (Sstable.count kept)

let prop_compaction_equals_map_merge =
  QCheck.Test.make ~name:"compaction merge = newest cell per coordinate" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_bound 20) small_nat))
    (fun writes ->
      (* Build three tables from three slices of a write sequence. *)
      let indexed = List.mapi (fun i (k, v) -> (i, k, v)) writes in
      let slice p =
        List.filter_map
          (fun (i, k, v) ->
            if i mod 3 = p then
              Some ((Printf.sprintf "k%02d" k, "c"), cell ~value:(Some (string_of_int v)) (lsn 1 (i + 1)))
            else None)
          indexed
        |> List.sort_uniq (fun (a, _) (b, _) -> Row.compare_coord a b)
      in
      let tables = List.map (fun p -> Sstable.build (slice p)) [ 0; 1; 2 ] in
      let merged = Storage.Compaction.merge ~newer:Row.newer_by_lsn tables in
      (* Model: newest write per key across the whole sequence... but within a
         slice duplicates were dropped by sort_uniq keeping an arbitrary one,
         so compare against the per-table contents instead. *)
      let model = Hashtbl.create 16 in
      List.iter
        (fun t ->
          Sstable.iter t (fun coord c ->
              match Hashtbl.find_opt model coord with
              | Some (existing : Row.cell) when Row.newer_by_lsn existing c -> ()
              | _ -> Hashtbl.replace model coord c))
        tables;
      Hashtbl.fold
        (fun coord (c : Row.cell) acc ->
          acc && (match Sstable.get merged coord with Some got -> Lsn.equal got.Row.lsn c.lsn | None -> false))
        model true)

(* --- WAL -------------------------------------------------------------------- *)

let make_wal ?(disk = Sim.Disk_model.Ssd) ?(max_batch = 16) () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create disk in
  let wal =
    Wal.create engine ~disk:resource ~model ~rng:(Sim.Rng.create 1) ~max_batch ()
  in
  (engine, wal)

let put_record ~cohort ~l key =
  Log_record.write ~cohort ~lsn:l ~timestamp:0
    (Log_record.Put { key; col = "c"; value = "v"; version = 1 })

let test_wal_force_makes_durable () =
  let engine, wal = make_wal () in
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 1) "a");
  check_int "not durable yet" 0 (Wal.durable_count wal);
  let forced = ref false in
  Wal.force wal (fun () -> forced := true);
  Sim.Engine.run engine;
  check_bool "callback" true !forced;
  check_int "durable" 1 (Wal.durable_count wal)

let test_wal_crash_loses_tail () =
  let engine, wal = make_wal () in
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 1) "a");
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 2) "b");
  Wal.crash wal;
  Sim.Engine.run engine;
  check_int "only forced record survives" 1 (Wal.durable_count wal);
  check_bool "lst from durable log" true (Lsn.equal (Wal.last_write_lsn wal ~cohort:0) (lsn 1 1))

let test_wal_group_commit_batches () =
  let engine, wal = make_wal ~max_batch:64 () in
  (* Submit 32 appends+forces in the same instant: group commit should need
     far fewer device forces than 32. *)
  let acked = ref 0 in
  for i = 1 to 32 do
    Wal.append_and_force wal (put_record ~cohort:0 ~l:(lsn 1 i) "k") (fun () -> incr acked)
  done;
  Sim.Engine.run engine;
  check_int "all acked" 32 !acked;
  check_bool
    (Printf.sprintf "few forces (%d)" (Wal.forces_issued wal))
    true
    (Wal.forces_issued wal <= 2)

let test_wal_max_batch_bounds_forces () =
  let engine, wal = make_wal ~max_batch:1 () in
  let acked = ref 0 in
  for i = 1 to 8 do
    Wal.append_and_force wal (put_record ~cohort:0 ~l:(lsn 1 i) "k") (fun () -> incr acked)
  done;
  Sim.Engine.run engine;
  check_int "all acked" 8 !acked;
  check_int "one force per record" 8 (Wal.forces_issued wal)

let test_wal_crash_drops_waiters () =
  let engine, wal = make_wal () in
  let fired = ref false in
  Wal.append_and_force wal (put_record ~cohort:0 ~l:(lsn 1 1) "a") (fun () -> fired := true);
  Wal.crash wal;
  Sim.Engine.run engine;
  check_bool "waiter dropped on crash" false !fired

let test_wal_per_cohort_accounting () =
  let engine, wal = make_wal () in
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 1) "a");
  Wal.append wal (put_record ~cohort:1 ~l:(lsn 1 7) "b");
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 1));
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  check_bool "c0 lst" true (Lsn.equal (Wal.last_write_lsn wal ~cohort:0) (lsn 1 1));
  check_bool "c1 lst" true (Lsn.equal (Wal.last_write_lsn wal ~cohort:1) (lsn 1 7));
  check_bool "c0 cmt" true (Lsn.equal (Wal.last_commit_marker wal ~cohort:0) (lsn 1 1));
  check_bool "c1 cmt zero" true (Lsn.equal (Wal.last_commit_marker wal ~cohort:1) Lsn.zero)

let test_wal_gc_rolls_over () =
  let engine, wal = make_wal () in
  for i = 1 to 10 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  Wal.append wal (put_record ~cohort:1 ~l:(lsn 1 3) "other");
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Wal.gc_cohort wal ~cohort:0 ~upto:(lsn 1 7);
  check_int "writes in (7,10] + cohort 1" 4 (Wal.durable_count wal);
  Alcotest.(check (option string))
    "floor is 8"
    (Some "1.8")
    (Option.map Lsn.to_string (Wal.min_available_write_lsn wal ~cohort:0));
  check_bool "cohort 1 untouched" true
    (Lsn.equal (Wal.last_write_lsn wal ~cohort:1) (lsn 1 3))

(* Rollover must release what it drops: an index that kept dropped ops in
   its slots, or its grown arrays once empty, would hold a rolled-over
   cohort's history in the heap. Each op is fresh and registered in a weak
   array, so after a major collection a full slot means something still
   reaches that op. *)
let test_wal_gc_releases_dropped_ops () =
  let n = 4000 in
  let engine, wal = make_wal ~max_batch:64 () in
  let fresh_words = Obj.reachable_words (Obj.repr wal) in
  let ops = Weak.create n in
  let index_all () =
    for i = 1 to n do
      let op =
        Log_record.Put { key = Printf.sprintf "k%d" i; col = "c"; value = "v"; version = i }
      in
      Weak.set ops (i - 1) (Some op);
      Wal.append wal (Log_record.write ~cohort:0 ~lsn:(lsn 1 i) ~timestamp:0 op)
    done;
    Wal.force wal (fun () -> ());
    Sim.Engine.run engine
  in
  index_all ();
  check_int "all indexed" n (Wal.durable_writes wal ~cohort:0);
  let reachable () =
    Gc.full_major ();
    List.filter (Weak.check ops) (List.init n Fun.id)
  in
  let expect what ~from =
    Alcotest.(check (list int)) what (List.init (n - from) (fun i -> from + i)) (reachable ())
  in
  (* Fewer than a quarter of the slots stay live: the survivors move. *)
  Wal.gc_cohort wal ~cohort:0 ~upto:(lsn 1 (n - 100));
  expect "only the 100 kept ops after a deep cut" ~from:(n - 100);
  (* Most stay live: the dropped slots are cleared in place. *)
  Wal.gc_cohort wal ~cohort:0 ~upto:(lsn 1 (n - 90));
  expect "only the 90 kept ops after a shallow cut" ~from:(n - 90);
  Wal.gc_cohort wal ~cohort:0 ~upto:(lsn 1 n);
  expect "no op after rolling over everything" ~from:n;
  check_int "nothing retained" 0 (Wal.durable_writes wal ~cohort:0);
  (* The 4000 records needed arrays of 4096 slots: about 20k words. *)
  check_bool "the emptied log is back near its fresh size" true
    (Obj.reachable_words (Obj.repr wal) < fresh_words + 1000)

let test_wal_writes_in_range_sorted_dedup () =
  let engine, wal = make_wal () in
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 2) "b");
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 1) "a");
  Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 2) "b-dup");
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  let writes = Wal.durable_writes_in wal ~cohort:0 ~above:Lsn.zero ~upto:(lsn 1 99) in
  check_int "dedup by lsn" 2 (List.length writes);
  check_bool "ascending" true
    (match writes with
    | (a, _, _, _) :: (b, _, _, _) :: _ -> Lsn.(a < b)
    | _ -> false)

let test_wal_wipe_loses_everything () =
  let engine, wal = make_wal () in
  Wal.append_and_force wal (put_record ~cohort:0 ~l:(lsn 1 1) "a") (fun () -> ());
  Sim.Engine.run engine;
  check_int "durable before wipe" 1 (Wal.durable_count wal);
  Wal.wipe wal;
  check_int "nothing after disk loss" 0 (Wal.durable_count wal);
  check_bool "lst reset" true (Lsn.equal (Wal.last_write_lsn wal ~cohort:0) Lsn.zero)

let test_wal_batch_service_scales_with_bytes () =
  (* A batch of large records takes longer on the device than small ones:
     the magnetic model charges bytes/bandwidth on top of the seek. *)
  let run value_bytes =
    let engine = Sim.Engine.create () in
    let disk = Sim.Resource.create engine () in
    let model = Sim.Disk_model.create Sim.Disk_model.Magnetic in
    let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) ~max_batch:64 () in
    for i = 1 to 32 do
      Wal.append wal
        (Log_record.write ~cohort:0 ~lsn:(lsn 1 i) ~timestamp:0
           (Log_record.Put { key = "k"; col = "c"; value = String.make value_bytes 'x'; version = i }))
    done;
    let done_at = ref Sim.Sim_time.zero in
    Wal.force wal (fun () -> done_at := Sim.Engine.now engine);
    Sim.Engine.run engine;
    Sim.Sim_time.time_to_us !done_at
  in
  check_bool "1MB batch slower than 32B batch" true (run 32_768 > run 32)

(* --- skipped LSNs ------------------------------------------------------------ *)

let test_skipped_lsns () =
  let s = Storage.Skipped_lsns.create () in
  Storage.Skipped_lsns.add s [ lsn 1 22; lsn 1 25 ];
  check_bool "mem" true (Storage.Skipped_lsns.mem s (lsn 1 22));
  check_bool "not mem" false (Storage.Skipped_lsns.mem s (lsn 1 23));
  Storage.Skipped_lsns.gc_upto s (lsn 1 22);
  check_bool "gc removed" false (Storage.Skipped_lsns.mem s (lsn 1 22));
  check_bool "gc kept later" true (Storage.Skipped_lsns.mem s (lsn 1 25));
  check_int "count" 1 (Storage.Skipped_lsns.count s)

(* --- store -------------------------------------------------------------------- *)

let make_store ?(flush_bytes = 4 * 1024 * 1024) () =
  let engine, wal = make_wal () in
  let store = Store.create ~cohort:0 ~wal ~flush_bytes () in
  (engine, wal, store)

(* Apply as a cohort does: the write, then the flush decision. *)
let apply_put store ~l key value =
  Store.apply store ~lsn:l ~timestamp:0
    (Log_record.Put { key; col = "c"; value; version = l.Lsn.seq });
  if Store.flush_due store then Store.flush store ~replies:[]

let test_store_apply_read () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "k" "v1";
  check_str_opt "read" (Some "v1")
    (Option.bind (Store.read store ("k", "c")) (fun c -> c.Row.value));
  check_int "version" 1 (Store.current_version store ("k", "c"))

let test_store_delete_hides_but_versions () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "k" "v1";
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:0
    (Log_record.Delete { key = "k"; col = "c"; version = 2 });
  check_bool "read sees nothing" true (Store.read store ("k", "c") = None);
  check_int "tombstone version visible" 2 (Store.current_version store ("k", "c"))

let test_store_flush_and_read_from_sstable () =
  let _, _, store = make_store () in
  for i = 1 to 50 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%02d" i) (Printf.sprintf "v%d" i)
  done;
  Store.flush store ~replies:[];
  check_int "memtable drained" 0 (Store.memtable_size store);
  check_int "one sstable" 1 (Store.sstable_count store);
  check_str_opt "served from sstable" (Some "v17")
    (Option.bind (Store.read store ("k17", "c")) (fun c -> c.Row.value));
  check_bool "flushed_upto" true (Lsn.equal (Store.flushed_upto store) (lsn 1 50))

let test_store_auto_flush_and_compaction () =
  let _, _, store = make_store ~flush_bytes:2_000 () in
  for i = 1 to 400 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%03d" (i mod 40)) "valuevaluevalue"
  done;
  check_bool "compaction bounded fan-in" true (Store.sstable_count store <= 4);
  (* Newest value still wins across tables. *)
  check_str_opt "read latest" (Some "valuevaluevalue")
    (Option.bind (Store.read store ("k007", "c")) (fun c -> c.Row.value))

let test_store_recovery_replays_to_cmt () =
  let engine, wal, store = make_store () in
  (* Write 5 records through the wal as a cohort would. *)
  for i = 1 to 5 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 3));
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Store.crash store;
  Wal.crash wal;
  let cmt, lst = Store.recover store in
  check_bool "cmt from marker" true (Lsn.equal cmt (lsn 1 3));
  check_bool "lst from log" true (Lsn.equal lst (lsn 1 5));
  check_bool "committed visible" true (Store.read store ("k3", "c") <> None);
  check_bool "uncommitted invisible" true (Store.read store ("k4", "c") = None)

let test_store_recovery_skips_truncated () =
  let engine, wal, store = make_store () in
  for i = 1 to 3 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 3));
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  (* Logically truncate 1.2: future recovery must not re-apply it. *)
  Storage.Skipped_lsns.add (Store.skipped store) [ lsn 1 2 ];
  Store.crash store;
  let _ = Store.recover store in
  check_bool "k1 there" true (Store.read store ("k1", "c") <> None);
  check_bool "k2 skipped" true (Store.read store ("k2", "c") = None);
  check_bool "k3 there" true (Store.read store ("k3", "c") <> None)

let test_store_catchup_from_log_and_sstables () =
  let engine, wal, store = make_store () in
  for i = 1 to 10 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  for i = 1 to 10 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%d" i) "v"
  done;
  let from_log = Store.committed_cells_in store ~above:(lsn 1 4) ~upto:(lsn 1 8) in
  check_int "log-served range (4,8]" 4 (List.length from_log);
  check_int "no sstable fallback yet" 0 (Store.served_from_sstables store);
  (* Roll the log over; the GC waits for the checkpoint force, so run the
     engine. The same range must then come from SSTables. *)
  Store.flush store ~replies:[];
  Sim.Engine.run engine;
  let after_gc = Store.committed_cells_in store ~above:(lsn 1 4) ~upto:(lsn 1 8) in
  check_int "sstable-served range (4,8]" 4 (List.length after_gc);
  check_int "fallback counted" 1 (Store.served_from_sstables store)

let test_store_recover_all () =
  let engine, wal, store = make_store () in
  for i = 1 to 4 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 0 i) (Printf.sprintf "k%d" i))
  done;
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Store.crash store;
  let lst = Store.recover_all store in
  check_bool "lst" true (Lsn.equal lst (lsn 0 4));
  check_bool "everything applied" true (Store.read store ("k4", "c") <> None)

let test_store_all_cells_sorted () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "b" "1";
  apply_put store ~l:(lsn 1 2) "a" "2";
  Store.flush store ~replies:[];
  apply_put store ~l:(lsn 1 3) "c" "3";
  let keys = List.map (fun ((k, _), _) -> k) (Store.all_cells store) in
  Alcotest.(check (list string)) "sorted across tables" [ "a"; "b"; "c" ] keys

let test_memtable_range () =
  let m = Memtable.create () in
  List.iter (fun k -> Memtable.put m (k, "c") (cell (lsn 1 1))) [ "a"; "b"; "c"; "d" ];
  let keys lo hi = List.map (fun ((k, _), _) -> k) (Memtable.range m ~low:lo ~high:hi) in
  Alcotest.(check (list string)) "window" [ "b"; "c" ] (keys "b" "d");
  Alcotest.(check (list string)) "empty window" [] (keys "x" "z");
  Alcotest.(check (list string)) "all" [ "a"; "b"; "c"; "d" ] (keys "" "zz")

let test_sstable_range () =
  let t = Sstable.build (sorted_entries 100) in
  let window = Sstable.range t ~low:"k0010" ~high:"k0013" in
  Alcotest.(check (list string))
    "window keys" [ "k0010"; "k0011"; "k0012" ]
    (List.map (fun ((k, _), _) -> k) window);
  check_int "empty before" 0 (List.length (Sstable.range t ~low:"a" ~high:"k0000"));
  check_int "tail" 1 (List.length (Sstable.range t ~low:"k0099" ~high:"zzz"))

let test_store_scan_merges_and_hides_tombstones () =
  let _, _, store = make_store () in
  (* Older values land in an SSTable... *)
  apply_put store ~l:(lsn 1 1) "k01" "old1";
  apply_put store ~l:(lsn 1 2) "k02" "old2";
  apply_put store ~l:(lsn 1 3) "k03" "old3";
  Store.flush store ~replies:[];
  (* ...then the memtable overwrites one and deletes another. *)
  apply_put store ~l:(lsn 1 4) "k02" "new2";
  Store.apply store ~lsn:(lsn 1 5) ~timestamp:0
    (Log_record.Delete { key = "k03"; col = "c"; version = 4 });
  let rows = Store.scan store ~low:"k00" ~high:"k99" ~limit:10 in
  Alcotest.(check (list string)) "row keys" [ "k01"; "k02" ] (List.map fst rows);
  let value_of key =
    List.assoc key rows |> List.assoc "c" |> fun (c : Row.cell) -> c.value
  in
  check_str_opt "sstable value survives" (Some "old1") (value_of "k01");
  check_str_opt "memtable overwrite wins" (Some "new2") (value_of "k02")

let test_store_scan_limit_and_bounds () =
  let _, _, store = make_store () in
  for i = 1 to 20 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%02d" i) "v"
  done;
  check_int "limit" 5 (List.length (Store.scan store ~low:"k00" ~high:"k99" ~limit:5));
  let bounded = Store.scan store ~low:"k05" ~high:"k08" ~limit:100 in
  Alcotest.(check (list string)) "bounds" [ "k05"; "k06"; "k07" ] (List.map fst bounded)

let test_store_scan_multi_column_rows () =
  let _, _, store = make_store () in
  Store.apply store ~lsn:(lsn 1 1) ~timestamp:0
    (Log_record.Put { key = "k"; col = "a"; value = "1"; version = 1 });
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:0
    (Log_record.Put { key = "k"; col = "b"; value = "2"; version = 1 });
  match Store.scan store ~low:"" ~high:"zz" ~limit:10 with
  | [ (key, cols) ] ->
    Alcotest.(check string) "one row" "k" key;
    Alcotest.(check (list string)) "both columns" [ "a"; "b" ] (List.map fst cols)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let prop_store_scan_matches_model =
  QCheck.Test.make ~name:"store: scan = sorted live keys of a model map" ~count:60
    QCheck.(list (pair (int_bound 30) bool))
    (fun writes ->
      let _, _, store = make_store () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (k, deleted) ->
          let key = Printf.sprintf "k%02d" k in
          if deleted then begin
            Store.apply store ~lsn:(lsn 1 (i + 1)) ~timestamp:0
              (Log_record.Delete { key; col = "c"; version = i });
            Hashtbl.remove model key
          end
          else begin
            apply_put store ~l:(lsn 1 (i + 1)) key "v";
            Hashtbl.replace model key ()
          end;
          (* Occasionally flush so the scan has to merge tables. *)
          if i mod 7 = 6 then Store.flush store ~replies:[])
        writes;
      let scanned = List.map fst (Store.scan store ~low:"" ~high:"zzz" ~limit:1000) in
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      scanned = expected)

let test_store_crash_between_flush_and_checkpoint_force () =
  let engine, wal, store = make_store () in
  for i = 1 to 6 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  (* The cohort committed everything: durable writes + commit marker. *)
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 6));
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  for i = 1 to 6 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%d" i) "v"
  done;
  (* Flush appends a checkpoint, but the node crashes before the checkpoint
     record is forced. The log must NOT have been rolled over in between:
     that would leave stable storage with neither the writes nor the
     checkpoint that replaced them. *)
  Store.flush store ~replies:[];
  Wal.crash wal;
  Store.crash store;
  let ckpt = Wal.last_checkpoint wal ~cohort:0 in
  let cmt = Wal.last_commit_marker wal ~cohort:0 in
  check_bool "checkpoint was lost with the crash" true (Lsn.equal ckpt Lsn.zero);
  check_int "every committed write survives in the log" 6
    (List.length (Wal.durable_writes_in wal ~cohort:0 ~above:ckpt ~upto:cmt));
  (* End to end: recovery rebuilds complete committed state. *)
  let cmt', _ = Store.recover store in
  check_bool "f.cmt recovered" true (Lsn.equal cmt' (lsn 1 6));
  for i = 1 to 6 do
    check_bool (Printf.sprintf "k%d readable after recovery" i) true
      (Store.read store (Printf.sprintf "k%d" i, "c") <> None)
  done

let test_wal_byte_accounting_and_forces () =
  let engine, wal = make_wal ~max_batch:2 () in
  let records =
    List.init 5 (fun i -> put_record ~cohort:0 ~l:(lsn 1 (i + 1)) (Printf.sprintf "k%d" i))
  in
  let bytes rs = List.fold_left (fun a r -> a + Log_record.approx_bytes r) 0 rs in
  List.iter (Wal.append wal) records;
  check_int "volatile bytes = sum of appended records" (bytes records) (Wal.volatile_bytes wal);
  Wal.force wal (fun () -> ());
  (* The first batch (max_batch = 2 records) left the tail when the device
     force was issued, before it completed. *)
  check_int "in-flight batch is out of the volatile tail"
    (bytes (List.filteri (fun i _ -> i >= 2) records))
    (Wal.volatile_bytes wal);
  Sim.Engine.run engine;
  check_int "tail drained" 0 (Wal.volatile_bytes wal);
  check_int "ceil(5/2) device forces" 3 (Wal.forces_issued wal);
  check_int "all durable" 5 (Wal.durable_count wal)

let test_store_get_prunes_stale_sstables () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "k" "old";
  Store.flush store ~replies:[];
  apply_put store ~l:(lsn 1 2) "k" "new";
  Store.flush store ~replies:[];
  check_int "two tables" 2 (Store.sstable_count store);
  let skipped0 = Store.sstables_skipped store in
  check_str_opt "newest wins" (Some "new")
    (Option.bind (Store.read store ("k", "c")) (fun c -> c.Row.value));
  check_bool "older table pruned via max_lsn" true (Store.sstables_skipped store > skipped0)

let test_store_scan_prunes_disjoint_sstables () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "a" "1";
  apply_put store ~l:(lsn 1 2) "b" "2";
  Store.flush store ~replies:[];
  apply_put store ~l:(lsn 1 3) "x" "3";
  Store.flush store ~replies:[];
  let skipped0 = Store.sstables_skipped store in
  let rows = Store.scan store ~low:"x" ~high:"zz" ~limit:10 in
  Alcotest.(check (list string)) "only x" [ "x" ] (List.map fst rows);
  check_int "disjoint table skipped" (skipped0 + 1) (Store.sstables_skipped store)

(* Shared bound semantics: low inclusive, high exclusive, byte-wise compare. *)
let prop_memtable_sstable_range_agree =
  QCheck.Test.make ~name:"memtable and sstable agree on [low, high) windows" ~count:150
    QCheck.(pair (list (int_bound 20)) (pair (int_bound 21) (int_bound 21)))
    (fun (ks, (b1, b2)) ->
      let m = Memtable.create () in
      List.iteri
        (fun i k -> Memtable.put m (Printf.sprintf "k%02d" k, "c") (cell (lsn 1 (i + 1))))
        ks;
      let table = Sstable.build (Memtable.to_sorted_list m) in
      let low = Printf.sprintf "k%02d" (Stdlib.min b1 b2)
      and high = Printf.sprintf "k%02d" (Stdlib.max b1 b2) in
      let naive =
        List.filter
          (fun ((k, _), _) -> String.compare low k <= 0 && String.compare k high < 0)
          (Memtable.to_sorted_list m)
      in
      Memtable.range m ~low ~high = naive && Sstable.range table ~low ~high = naive)

let prop_store_scan_window_matches_model =
  QCheck.Test.make ~name:"store: scan window/limit = model slice (random bounds)" ~count:80
    QCheck.(
      triple
        (list (pair (int_bound 30) bool))
        (pair (int_bound 31) (int_bound 31))
        (int_bound 8))
    (fun (writes, (b1, b2), limit_raw) ->
      let _, _, store = make_store () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (k, deleted) ->
          let key = Printf.sprintf "k%02d" k in
          if deleted then begin
            Store.apply store ~lsn:(lsn 1 (i + 1)) ~timestamp:0
              (Log_record.Delete { key; col = "c"; version = i });
            Hashtbl.remove model key
          end
          else begin
            apply_put store ~l:(lsn 1 (i + 1)) key "v";
            Hashtbl.replace model key ()
          end;
          (* Flush often enough that compaction (fanin 4) also happens. *)
          if i mod 5 = 4 then Store.flush store ~replies:[])
        writes;
      let low = Printf.sprintf "k%02d" (Stdlib.min b1 b2)
      and high = Printf.sprintf "k%02d" (Stdlib.max b1 b2) in
      let limit = limit_raw + 1 in
      let scanned = List.map fst (Store.scan store ~low ~high ~limit) in
      let expected =
        Hashtbl.fold (fun k () acc -> k :: acc) model []
        |> List.filter (fun k -> String.compare low k <= 0 && String.compare k high < 0)
        |> List.sort compare
        |> List.filteri (fun i _ -> i < limit)
      in
      scanned = expected)

let prop_store_apply_idempotent =
  QCheck.Test.make ~name:"store: re-applying a record is idempotent" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_bound 5) small_nat))
    (fun writes ->
      let _, _, store = make_store () in
      List.iteri
        (fun i (k, v) ->
          apply_put store ~l:(lsn 1 (i + 1)) (Printf.sprintf "k%d" k) (string_of_int v))
        writes;
      let before =
        List.map (fun (k, _) -> Store.read store (Printf.sprintf "k%d" k, "c")) writes
      in
      (* Re-apply everything (recovery replay). *)
      List.iteri
        (fun i (k, v) ->
          apply_put store ~l:(lsn 1 (i + 1)) (Printf.sprintf "k%d" k) (string_of_int v))
        writes;
      let after =
        List.map (fun (k, _) -> Store.read store (Printf.sprintf "k%d" k, "c")) writes
      in
      List.for_all2
        (fun a b ->
          Option.map (fun (c : Row.cell) -> c.value) a
          = Option.map (fun (c : Row.cell) -> c.value) b)
        before after)

(* --- merge iterator ---------------------------------------------------------- *)

module Iterator = Storage.Iterator

let entries_of_ints ks =
  List.map (fun (k, s) -> ((Printf.sprintf "k%02d" k, "c"), cell (lsn 1 s))) ks

let test_iterator_merges_sorted_sources () =
  let a = Iterator.of_sorted_list (entries_of_ints [ (1, 1); (3, 2); (5, 3) ]) in
  let b = Iterator.of_sorted_list (entries_of_ints [ (2, 4); (3, 5); (6, 6) ]) in
  let merged = Iterator.merge ~newer:Row.newer_by_lsn [ a; b ] in
  let keys = List.map (fun ((k, _), _) -> k) (Iterator.to_list merged) in
  Alcotest.(check (list string))
    "ascending, one entry per coordinate"
    [ "k01"; "k02"; "k03"; "k05"; "k06" ]
    keys

let test_iterator_duplicate_resolution_matches_rank () =
  (* Source order = consultation order: the first source's cell survives a
     duplicate unless the later one is strictly newer. *)
  let newest_first =
    Iterator.merge ~newer:Row.newer_by_lsn
      [
        Iterator.of_sorted_list [ (("k", "c"), cell ~value:(Some "new") (lsn 1 9)) ];
        Iterator.of_sorted_list [ (("k", "c"), cell ~value:(Some "old") (lsn 1 1)) ];
      ]
  in
  (match Iterator.next newest_first with
  | Some (_, c) -> check_str_opt "first-source newer wins" (Some "new") c.Row.value
  | None -> Alcotest.fail "empty merge");
  let oldest_first =
    Iterator.merge ~newer:Row.newer_by_lsn
      [
        Iterator.of_sorted_list [ (("k", "c"), cell ~value:(Some "old") (lsn 1 1)) ];
        Iterator.of_sorted_list [ (("k", "c"), cell ~value:(Some "new") (lsn 1 9)) ];
      ]
  in
  match Iterator.next oldest_first with
  | Some (_, c) -> check_str_opt "later-source newer still wins" (Some "new") c.Row.value
  | None -> Alcotest.fail "empty merge"

let test_iterator_sstable_window_and_laziness () =
  let table = Sstable.build (sorted_entries 100) in
  let src = Iterator.of_sstable ~low:"k0010" ~high:"k0013" table in
  let merged = Iterator.merge ~newer:Row.newer_by_lsn [ src ] in
  Alcotest.(check (list string))
    "window [low, high)" [ "k0010"; "k0011"; "k0012" ]
    (List.map (fun ((k, _), _) -> k) (Iterator.to_list merged));
  (* Laziness: a consumer that stops early never drains the sequence. *)
  let pulled = ref 0 in
  let seq = Seq.map (fun e -> incr pulled; e) (List.to_seq (sorted_entries 100)) in
  let m = Iterator.merge ~newer:Row.newer_by_lsn [ Iterator.of_seq seq ] in
  ignore (Iterator.next m);
  ignore (Iterator.next m);
  check_bool (Printf.sprintf "pulled %d of 100" !pulled) true (!pulled <= 3)

let prop_iterator_merge_equals_map_merge =
  QCheck.Test.make ~name:"iterator merge = coordinate-map merge (3 sources)" ~count:100
    QCheck.(triple (list (int_bound 15)) (list (int_bound 15)) (list (int_bound 15)))
    (fun (xs, ys, zs) ->
      let mk base ks =
        List.sort_uniq (fun (a, _) (b, _) -> Row.compare_coord a b)
          (List.mapi
             (fun i k ->
               ((Printf.sprintf "k%02d" k, "c"), cell ~value:(Some (string_of_int (base + i))) (lsn 1 (base + i))))
             ks)
      in
      let lists = [ mk 1000 xs; mk 2000 ys; mk 100 zs ] in
      let merged =
        Iterator.merge ~newer:Row.newer_by_lsn (List.map Iterator.of_sorted_list lists)
        |> Iterator.to_list
      in
      (* Model: fold sources in order, keep the incumbent unless strictly newer. *)
      let model = Hashtbl.create 16 in
      List.iter
        (List.iter (fun (coord, c) ->
             match Hashtbl.find_opt model coord with
             | Some (e : Row.cell) when Row.newer_by_lsn e c -> ()
             | _ -> Hashtbl.replace model coord c))
        lists;
      List.length merged = Hashtbl.length model
      && List.for_all
           (fun (coord, (c : Row.cell)) ->
             match Hashtbl.find_opt model coord with
             | Some m -> Lsn.equal m.Row.lsn c.lsn
             | None -> false)
           merged
      && merged = List.sort (fun (a, _) (b, _) -> Row.compare_coord a b) merged)

(* --- LRU cache ---------------------------------------------------------------- *)

module Cache = Storage.Cache

let test_cache_lru_eviction_order () =
  let c = Cache.create ~capacity:2 () in
  Cache.put c ("a", "c") 1;
  Cache.put c ("b", "c") 2;
  (* Touch "a" so "b" is the LRU entry when "x" forces an eviction. *)
  check_bool "a hit" true (Cache.find c ("a", "c") = Some 1);
  Cache.put c ("x", "c") 3;
  check_bool "b evicted" true (Cache.find c ("b", "c") = None);
  check_bool "a kept" true (Cache.find c ("a", "c") = Some 1);
  check_bool "x kept" true (Cache.find c ("x", "c") = Some 3);
  check_int "one eviction" 1 (Cache.evictions c);
  check_int "size bounded" 2 (Cache.size c)

let test_cache_invalidate_and_clear () =
  let c = Cache.create ~capacity:4 () in
  Cache.put c ("a", "c") 1;
  Cache.invalidate c ("a", "c");
  check_bool "invalidated" true (Cache.find c ("a", "c") = None);
  check_int "invalidation counted" 1 (Cache.invalidations c);
  Cache.invalidate c ("ghost", "c");
  check_int "absent coord is a no-op" 1 (Cache.invalidations c);
  Cache.put c ("b", "c") 2;
  ignore (Cache.find c ("b", "c"));
  Cache.clear c;
  check_int "empty after clear" 0 (Cache.size c);
  check_int "counters survive clear" 1 (Cache.hits c);
  (* One miss (the invalidated "a") and one hit ("b") were counted. *)
  check_bool "hit rate" true (abs_float (Cache.hit_rate c -. 0.5) < 1e-9)

let prop_cache_size_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache: size <= capacity under random ops" ~count:100
    QCheck.(pair (int_range 1 8) (list (pair (int_bound 20) (int_bound 2))))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      List.iter
        (fun (k, op) ->
          let coord = (Printf.sprintf "k%02d" k, "c") in
          match op with
          | 0 -> Cache.put c coord k
          | 1 -> ignore (Cache.find c coord)
          | _ -> Cache.invalidate c coord)
        ops;
      Cache.size c <= cap)

(* --- tiered compaction planning ------------------------------------------------ *)

let table_of_bytes ~seq bytes =
  (* One table holding [bytes] of payload in a single cell. *)
  Sstable.build [ ((Printf.sprintf "k%04d" seq, "c"), cell ~value:(Some (String.make bytes 'x')) (lsn 1 seq)) ]

let test_compaction_plan_picks_similar_sized_run () =
  let tables = List.mapi (fun i b -> table_of_bytes ~seq:(i + 1) b) [ 100; 110; 100; 105; 4000 ] in
  (match Storage.Compaction.plan ~fanin:4 ~max_tables:16 tables with
  | Some (Storage.Compaction.Run { start; length }) ->
    check_int "run starts at the small tier" 0 start;
    check_int "covers the four similar tables" 4 length
  | other ->
    Alcotest.failf "expected Run, got %s"
      (match other with Some Storage.Compaction.All -> "All" | None -> "None" | _ -> "?"));
  (* Below fanin similar tables: nothing to do. *)
  let sparse = List.mapi (fun i b -> table_of_bytes ~seq:(i + 1) b) [ 100; 1000; 10_000 ] in
  check_bool "no full tier -> None" true
    (Storage.Compaction.plan ~fanin:4 ~max_tables:16 sparse = None)

let test_compaction_plan_full_at_max_tables () =
  let tables = List.init 6 (fun i -> table_of_bytes ~seq:(i + 1) (100 * (i + 1))) in
  check_bool "safety valve" true
    (Storage.Compaction.plan ~fanin:4 ~max_tables:6 tables = Some Storage.Compaction.All)

let test_store_tiered_compaction_bounds_work () =
  (* Distinct keys per flush: the store grows linearly while each tier merge
     touches only its tier. The seed design (full merge every [fanin]
     flushes) would show max merge input ~= store bytes and every compaction
     full; tiering must keep single-merge input well under the store size
     with zero full merges, while still bounding the table count. *)
  let _, _, store = make_store ~flush_bytes:2_000 () in
  for i = 1 to 2_000 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%05d" i) "valuevaluevalue"
  done;
  check_bool "compactions ran" true (Store.compactions store > 10);
  check_int "no full merge below the safety valve" 0 (Store.full_compactions store);
  check_bool "table count bounded" true (Store.sstable_count store < 16);
  let max_input = Store.max_compaction_input_bytes store in
  let store_peak = Store.max_store_bytes_at_compaction store in
  check_bool
    (Printf.sprintf "max merge input %dB well under peak store %dB" max_input store_peak)
    true
    (float_of_int max_input < 0.9 *. float_of_int store_peak);
  (* Reads still see everything across the tiers. *)
  check_str_opt "oldest key survives" (Some "valuevaluevalue")
    (Option.bind (Store.read store ("k00001", "c")) (fun c -> c.Row.value))

let test_store_major_compact_gcs_tombstones () =
  let _, _, store = make_store () in
  apply_put store ~l:(lsn 1 1) "a" "1";
  apply_put store ~l:(lsn 1 2) "b" "2";
  Store.apply store ~lsn:(lsn 1 3) ~timestamp:0
    (Log_record.Delete { key = "a"; col = "c"; version = 2 });
  Store.flush store ~replies:[];
  check_int "tombstone still versioned" 2 (Store.current_version store ("a", "c"));
  Store.major_compact store;
  check_int "one table" 1 (Store.sstable_count store);
  check_int "tombstone GCed" 0 (Store.current_version store ("a", "c"));
  check_int "full merge counted" 1 (Store.full_compactions store);
  check_str_opt "live key survives" (Some "2")
    (Option.bind (Store.read store ("b", "c")) (fun c -> c.Row.value))

(* --- store row cache ------------------------------------------------------------ *)

let make_cached_store ?(cache_capacity = 8) () =
  let engine, wal = make_wal () in
  let store = Store.create ~cohort:0 ~wal ~cache_capacity () in
  (engine, wal, store)

let test_store_cache_hits_and_invalidation () =
  let _, _, store = make_cached_store () in
  apply_put store ~l:(lsn 1 1) "k" "v1";
  Store.flush store ~replies:[];
  (* First get fills the cache, the second is served from it. *)
  ignore (Store.get store ("k", "c"));
  check_int "first lookup misses" 1 (Store.cache_misses store);
  let probed0 = Store.sstables_probed store in
  (match Store.get_profiled store ("k", "c") with
  | Some c, Store.Cache_hit -> check_str_opt "cached value" (Some "v1") c.Row.value
  | _, Store.Probed _ -> Alcotest.fail "expected a cache hit"
  | None, _ -> Alcotest.fail "value lost");
  check_int "hit did not touch sstables" probed0 (Store.sstables_probed store);
  (* A write to the coordinate invalidates it. *)
  apply_put store ~l:(lsn 1 2) "k" "v2";
  (match Store.get_profiled store ("k", "c") with
  | Some c, Store.Probed _ -> check_str_opt "fresh value" (Some "v2") c.Row.value
  | _, Store.Cache_hit -> Alcotest.fail "stale cache survived a write"
  | None, _ -> Alcotest.fail "value lost");
  check_bool "invalidations counted" true (Store.cache_invalidations store >= 1)

let test_store_cache_negative_lookups () =
  let _, _, store = make_cached_store () in
  apply_put store ~l:(lsn 1 1) "other" "v";
  Store.flush store ~replies:[];
  ignore (Store.get store ("ghost", "c"));
  (match Store.get_profiled store ("ghost", "c") with
  | None, Store.Cache_hit -> ()
  | None, Store.Probed _ -> Alcotest.fail "absence not cached"
  | Some _, _ -> Alcotest.fail "phantom value");
  (* The absent coordinate becoming live must invalidate the negative entry. *)
  apply_put store ~l:(lsn 1 2) "ghost" "now-live";
  check_str_opt "new value visible" (Some "now-live")
    (Option.bind (Store.read store ("ghost", "c")) (fun c -> c.Row.value))

let test_store_cache_cleared_on_crash () =
  let engine, wal, store = make_cached_store () in
  for i = 1 to 4 do
    Wal.append wal (put_record ~cohort:0 ~l:(lsn 1 i) (Printf.sprintf "k%d" i))
  done;
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 4));
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  for i = 1 to 4 do
    apply_put store ~l:(lsn 1 i) (Printf.sprintf "k%d" i) "v"
  done;
  ignore (Store.get store ("k1", "c"));
  check_bool "cache populated" true (Store.cache_size store > 0);
  Store.crash store;
  check_int "cache gone with the crash" 0 (Store.cache_size store);
  let _ = Store.recover store in
  check_str_opt "recovery unaffected" (Some "v")
    (Option.bind (Store.read store ("k1", "c")) (fun c -> c.Row.value))

(* --- the log-size flush trigger ------------------------------------------------ *)

(* A cohort's synchronous log: append, force and roll over before the apply,
   the flush decision after it — so the log is GC'd as soon as a flush's
   checkpoint is durable. *)
let log_and_apply engine wal store ~l op =
  Wal.append wal (Log_record.write ~cohort:0 ~lsn:l ~timestamp:0 op);
  Wal.append wal (Log_record.commit_upto ~cohort:0 l);
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Store.apply store ~lsn:l ~timestamp:0 op;
  if Store.flush_due store then Store.flush store ~replies:[];
  Sim.Engine.run engine

(* A stream over [keys] hot keys never fills [flush_bytes], yet the log the
   cohort retains, and what a restart replays, stay within the trigger's
   bound: [max log_flush_floor (log_flush_ratio × memtable bytes)] of log
   bytes since the last flush, plus the write that crossed it. *)
let check_log_bounded ~keys ~writes =
  let engine, wal, store = make_store () in
  let key i = Printf.sprintf "hot%04d" (i mod keys) in
  let op i = Log_record.Put { key = key i; col = "c"; value = "valuevaluevalue"; version = i } in
  let record_bytes = Log_record.write_bytes (op 0) in
  let peak_memtable = ref 0 and peak_log = ref 0 in
  let bound () =
    (Stdlib.max Store.log_flush_floor (Store.log_flush_ratio * !peak_memtable) / record_bytes) + 1
  in
  for i = 1 to writes do
    log_and_apply engine wal store ~l:(lsn 1 i) (op i);
    peak_memtable := Stdlib.max !peak_memtable (Store.memtable_bytes store);
    peak_log := Stdlib.max !peak_log (Wal.durable_writes wal ~cohort:0)
  done;
  let name = Printf.sprintf "%d hot keys" keys in
  check_bool (name ^ ": flush_bytes never reached") true (!peak_memtable < 4 * 1024 * 1024);
  check_bool (name ^ ": the trigger flushed") true (Store.sstable_count store > 0);
  check_bool
    (Printf.sprintf "%s: log records %d within the bound %d" name !peak_log (bound ()))
    true (!peak_log <= bound ());
  Store.crash store;
  Wal.crash wal;
  let cmt, _ = Store.recover store in
  check_bool (name ^ ": recovered to the last write") true (Lsn.equal cmt (lsn 1 writes));
  let replayed =
    List.length (Wal.durable_writes_in wal ~cohort:0 ~above:(Store.flushed_upto store) ~upto:cmt)
  in
  check_bool
    (Printf.sprintf "%s: replayed %d within the bound %d" name replayed (bound ()))
    true
    (replayed > 0 && replayed <= bound ());
  check_int (name ^ ": newest version readable") writes
    (Store.current_version store (key writes, "c"))

let test_store_log_size_trigger_bounds_replay () =
  (* Four keys: the 64 KiB floor governs. 2,000 keys: eight memtables. *)
  check_log_bounded ~keys:4 ~writes:20_000;
  check_log_bounded ~keys:2_000 ~writes:60_000

(* --- intent rebuild over intent-free tables ------------------------------------- *)

(* Recovery rebuilds the intent index from the tables that hold intent cells
   only; a newer tombstone in one of them still shadows an older live
   intent, and a table without intents changes nothing. *)
let test_store_intent_rebuild_skips_intent_free_tables () =
  let _, _, store = make_store () in
  let prepare ~l txn key =
    Store.apply store ~lsn:l ~timestamp:0
      (Log_record.Txn_prepare
         { txn; anchor = key; fence = Lsn.zero; writes = [ (key, "c", Some "x") ] })
  in
  prepare ~l:(lsn 1 1) "t1" "a";
  prepare ~l:(lsn 1 2) "t2" "b";
  Store.flush store ~replies:[];
  Store.apply store ~lsn:(lsn 1 3) ~timestamp:0
    (Log_record.Txn_resolve
       { txn = "t1"; commit = true; ts = 5; writes = [ ("a", "c", Some "x", 1) ] });
  Store.flush store ~replies:[];
  apply_put store ~l:(lsn 1 4) "z" "plain";
  Store.flush store ~replies:[];
  check_int "three tables" 3 (Store.sstable_count store);
  let live () = List.map (fun (txn, _, _) -> txn) (Store.live_intents store) in
  Alcotest.(check (list string)) "before the restart" [ "t2" ] (live ());
  Store.crash store;
  ignore (Store.recover store);
  Alcotest.(check (list string)) "after the restart" [ "t2" ] (live ())

let suite =
  [
    Alcotest.test_case "lsn: ordering" `Quick test_lsn_ordering;
    Alcotest.test_case "lsn: next/epoch/pp" `Quick test_lsn_next_and_epoch;
    QCheck_alcotest.to_alcotest prop_lsn_compare_total_order;
    QCheck_alcotest.to_alcotest prop_payloads_match_printf;
    Alcotest.test_case "memtable: put/get" `Quick test_memtable_put_get;
    Alcotest.test_case "memtable: default overwrite" `Quick test_memtable_overwrite_default;
    Alcotest.test_case "memtable: newer guard" `Quick test_memtable_newer_guard;
    Alcotest.test_case "memtable: sorted iteration" `Quick test_memtable_sorted_iteration;
    Alcotest.test_case "memtable: max lsn & clear" `Quick test_memtable_max_lsn_and_clear;
    QCheck_alcotest.to_alcotest prop_memtable_matches_model;
    Alcotest.test_case "bloom: no false negatives" `Quick test_bloom_no_false_negatives;
    Alcotest.test_case "bloom: filters absent keys" `Quick test_bloom_filters_most_absent;
    QCheck_alcotest.to_alcotest prop_bloom_never_false_negative;
    Alcotest.test_case "sstable: build & get" `Quick test_sstable_build_get;
    Alcotest.test_case "sstable: lsn/key tags" `Quick test_sstable_lsn_tags;
    Alcotest.test_case "sstable: rejects unsorted" `Quick test_sstable_rejects_unsorted;
    Alcotest.test_case "sstable: lsn-range extraction" `Quick test_sstable_lsn_range_extraction;
    QCheck_alcotest.to_alcotest prop_sstable_lookup_matches_input;
    Alcotest.test_case "compaction: newest wins" `Quick test_compaction_newest_wins;
    Alcotest.test_case "compaction: tombstone GC" `Quick test_compaction_drops_tombstones;
    QCheck_alcotest.to_alcotest prop_compaction_equals_map_merge;
    Alcotest.test_case "wal: force makes durable" `Quick test_wal_force_makes_durable;
    Alcotest.test_case "wal: crash loses tail" `Quick test_wal_crash_loses_tail;
    Alcotest.test_case "wal: group commit batches" `Quick test_wal_group_commit_batches;
    Alcotest.test_case "wal: max_batch=1 disables batching" `Quick test_wal_max_batch_bounds_forces;
    Alcotest.test_case "wal: crash drops waiters" `Quick test_wal_crash_drops_waiters;
    Alcotest.test_case "wal: per-cohort accounting" `Quick test_wal_per_cohort_accounting;
    Alcotest.test_case "wal: gc rolls over" `Quick test_wal_gc_rolls_over;
    Alcotest.test_case "wal: range queries sorted+dedup" `Quick test_wal_writes_in_range_sorted_dedup;
    Alcotest.test_case "wal: gc releases dropped ops" `Quick test_wal_gc_releases_dropped_ops;
    Alcotest.test_case "wal: wipe" `Quick test_wal_wipe_loses_everything;
    Alcotest.test_case "wal: batch service scales with bytes" `Quick
      test_wal_batch_service_scales_with_bytes;
    Alcotest.test_case "skipped-lsns: add/mem/gc" `Quick test_skipped_lsns;
    Alcotest.test_case "store: apply & read" `Quick test_store_apply_read;
    Alcotest.test_case "store: delete tombstones" `Quick test_store_delete_hides_but_versions;
    Alcotest.test_case "store: flush to sstable" `Quick test_store_flush_and_read_from_sstable;
    Alcotest.test_case "store: auto flush & compaction" `Quick test_store_auto_flush_and_compaction;
    Alcotest.test_case "store: recovery to cmt" `Quick test_store_recovery_replays_to_cmt;
    Alcotest.test_case "store: recovery honours skipped LSNs" `Quick test_store_recovery_skips_truncated;
    Alcotest.test_case "store: catch-up log vs sstable" `Quick test_store_catchup_from_log_and_sstables;
    Alcotest.test_case "store: recover_all" `Quick test_store_recover_all;
    Alcotest.test_case "store: all_cells sorted" `Quick test_store_all_cells_sorted;
    Alcotest.test_case "memtable: range window" `Quick test_memtable_range;
    Alcotest.test_case "sstable: range window" `Quick test_sstable_range;
    Alcotest.test_case "store: scan merges, hides tombstones" `Quick
      test_store_scan_merges_and_hides_tombstones;
    Alcotest.test_case "store: scan limit & bounds" `Quick test_store_scan_limit_and_bounds;
    Alcotest.test_case "store: scan multi-column rows" `Quick test_store_scan_multi_column_rows;
    QCheck_alcotest.to_alcotest prop_store_scan_matches_model;
    QCheck_alcotest.to_alcotest prop_store_apply_idempotent;
    Alcotest.test_case "store: crash between flush and checkpoint force" `Quick
      test_store_crash_between_flush_and_checkpoint_force;
    Alcotest.test_case "wal: incremental byte accounting" `Quick
      test_wal_byte_accounting_and_forces;
    Alcotest.test_case "store: get prunes stale sstables" `Quick
      test_store_get_prunes_stale_sstables;
    Alcotest.test_case "store: scan prunes disjoint sstables" `Quick
      test_store_scan_prunes_disjoint_sstables;
    QCheck_alcotest.to_alcotest prop_memtable_sstable_range_agree;
    QCheck_alcotest.to_alcotest prop_store_scan_window_matches_model;
    Alcotest.test_case "iterator: merges sorted sources" `Quick test_iterator_merges_sorted_sources;
    Alcotest.test_case "iterator: duplicate resolution by rank" `Quick
      test_iterator_duplicate_resolution_matches_rank;
    Alcotest.test_case "iterator: sstable window & laziness" `Quick
      test_iterator_sstable_window_and_laziness;
    QCheck_alcotest.to_alcotest prop_iterator_merge_equals_map_merge;
    Alcotest.test_case "cache: LRU eviction order" `Quick test_cache_lru_eviction_order;
    Alcotest.test_case "cache: invalidate & clear" `Quick test_cache_invalidate_and_clear;
    QCheck_alcotest.to_alcotest prop_cache_size_never_exceeds_capacity;
    Alcotest.test_case "compaction: plan picks similar-sized run" `Quick
      test_compaction_plan_picks_similar_sized_run;
    Alcotest.test_case "compaction: full merge at max_tables" `Quick
      test_compaction_plan_full_at_max_tables;
    Alcotest.test_case "store: tiered compaction bounds merge work" `Quick
      test_store_tiered_compaction_bounds_work;
    Alcotest.test_case "store: major compact GCs tombstones" `Quick
      test_store_major_compact_gcs_tombstones;
    Alcotest.test_case "store: cache hits & write invalidation" `Quick
      test_store_cache_hits_and_invalidation;
    Alcotest.test_case "store: cache covers negative lookups" `Quick
      test_store_cache_negative_lookups;
    Alcotest.test_case "store: cache cleared on crash" `Quick test_store_cache_cleared_on_crash;
    Alcotest.test_case "store: the log-size trigger bounds replay" `Quick
      test_store_log_size_trigger_bounds_replay;
    Alcotest.test_case "store: intent rebuild skips intent-free tables" `Quick
      test_store_intent_rebuild_skips_intent_free_tables;
  ]
