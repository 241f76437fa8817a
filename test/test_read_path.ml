(* Differential test for the tiered read path.

   A store with tight tiering knobs (small fanin, low full-merge safety
   valve, row cache on) and a reference store that never compacts and never
   caches are driven through the same randomized schedule of puts, deletes,
   flushes, and major compactions. Observable equivalence:

   - [read] (client-visible: tombstones hidden) must agree exactly;
   - [scan] over random windows/limits must agree exactly;
   - [get] may differ only where the tiered store has garbage-collected a
     tombstone the reference still holds (reference = Some tombstone,
     tiered = None) — that is precisely the state change a full-range
     compaction is allowed to make. *)

module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Log_record = Storage.Log_record
module Wal = Storage.Wal

type op =
  | Put of int * int * int  (* key, col, value *)
  | Delete of int * int
  | Flush
  | Major_compact

let keys = 8
let cols = 2

let key_of k = Printf.sprintf "k%02d" k
let col_of c = Printf.sprintf "c%d" c

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun k c v -> Put (k, c, v)) (int_bound (keys - 1)) (int_bound (cols - 1)) small_nat);
        (2, map2 (fun k c -> Delete (k, c)) (int_bound (keys - 1)) (int_bound (cols - 1)));
        (2, return Flush);
        (1, return Major_compact);
      ])

let pp_op = function
  | Put (k, c, v) -> Printf.sprintf "Put(%d,%d,%d)" k c v
  | Delete (k, c) -> Printf.sprintf "Del(%d,%d)" k c
  | Flush -> "Flush"
  | Major_compact -> "Major"

let arbitrary_schedule =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 80) op_gen)

let make_store ~tiered () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk:resource ~model ~rng:(Sim.Rng.create 1) ~max_batch:16 () in
  let store =
    if tiered then
      (* Aggressive knobs: tier merges every 2 similar tables, full merges
         (tombstone GC) at 6, cache small enough to see evictions. *)
      Store.create ~cohort:0 ~wal ~compaction_fanin:2 ~max_sstables:6 ~cache_capacity:4 ()
    else
      (* Reference: no compaction ever, no cache — every flushed table is
         retained, reads do the seed's full newest-first resolution. *)
      Store.create ~cohort:0 ~wal ~compaction_fanin:max_int ~max_sstables:max_int
        ~cache_capacity:0 ()
  in
  (engine, store)

let apply_schedule (engine, store) ops =
  List.iteri
    (fun i op ->
      let l = Lsn.make ~epoch:1 ~seq:(i + 1) in
      (match op with
      | Put (k, c, v) ->
        Store.apply store ~lsn:l ~timestamp:i
          (Log_record.Put { key = key_of k; col = col_of c; value = string_of_int v; version = i + 1 })
      | Delete (k, c) ->
        Store.apply store ~lsn:l ~timestamp:i
          (Log_record.Delete { key = key_of k; col = col_of c; version = i + 1 })
      | Flush -> Store.flush store ~replies:[]
      | Major_compact -> Store.major_compact store);
      (* Drain WAL forces scheduled by flush checkpoints. *)
      Sim.Engine.run engine)
    ops

let same_cell (a : Row.cell option) (b : Row.cell option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    x.Row.value = y.Row.value && x.version = y.version && Lsn.equal x.lsn y.lsn
  | _ -> false

let scan_eq a b =
  let flat rows =
    List.concat_map
      (fun (k, cells) -> List.map (fun (c, (cell : Row.cell)) -> (k, c, cell.Row.value)) cells)
      rows
  in
  flat a = flat b

let prop_tiered_equals_reference =
  QCheck.Test.make ~name:"tiered store == never-compacting reference (read/get/scan)" ~count:300
    arbitrary_schedule
    (fun ops ->
      let tiered = make_store ~tiered:true () in
      let reference = make_store ~tiered:false () in
      apply_schedule tiered ops;
      apply_schedule reference ops;
      let _, ts = tiered and _, rs = reference in
      let coords_ok =
        List.for_all
          (fun k ->
            List.for_all
              (fun c ->
                let coord = (key_of k, col_of c) in
                (* Client-visible read: exact agreement (checked twice so the
                   second tiered lookup exercises the cache-hit path). *)
                same_cell (Store.read ts coord) (Store.read rs coord)
                && same_cell (Store.read ts coord) (Store.read rs coord)
                &&
                (* Internal get: agreement modulo GC'd tombstones. *)
                match (Store.get ts coord, Store.get rs coord) with
                | Some t, Some r -> same_cell (Some t) (Some r)
                | None, None -> true
                | None, Some r -> r.Row.value = None  (* tiered GC'd a tombstone *)
                | Some _, None -> false)
              (List.init cols Fun.id))
          (List.init keys Fun.id)
      in
      (* Random-ish scan windows derived from the schedule length. *)
      let n = List.length ops in
      let windows =
        [ ("", "zz", 100); (key_of (n mod keys), key_of keys, 3); (key_of 2, key_of 6, 2) ]
      in
      let scans_ok =
        List.for_all
          (fun (low, high, limit) ->
            scan_eq (Store.scan ts ~low ~high ~limit) (Store.scan rs ~low ~high ~limit))
          windows
      in
      coords_ok && scans_ok)

let prop_tiered_survives_crash_recover =
  QCheck.Test.make ~name:"tiered store: crash+recover_all preserves reads vs reference" ~count:100
    arbitrary_schedule
    (fun ops ->
      let ((engine, ts) as tiered) = make_store ~tiered:true () in
      let reference = make_store ~tiered:false () in
      (* Log every write durably the way a cohort would, so recovery has a
         log to replay from. *)
      List.iteri
        (fun i op ->
          let l = Lsn.make ~epoch:1 ~seq:(i + 1) in
          match op with
          | Put (k, c, v) ->
            Wal.append (Store.wal ts)
              (Log_record.write ~cohort:0 ~lsn:l ~timestamp:i
                 (Log_record.Put { key = key_of k; col = col_of c; value = string_of_int v; version = i + 1 }))
          | Delete (k, c) ->
            Wal.append (Store.wal ts)
              (Log_record.write ~cohort:0 ~lsn:l ~timestamp:i
                 (Log_record.Delete { key = key_of k; col = col_of c; version = i + 1 }))
          | Flush | Major_compact -> ())
        ops;
      Wal.force (Store.wal ts) (fun () -> ());
      Sim.Engine.run engine;
      apply_schedule tiered ops;
      apply_schedule reference ops;
      let _, rs = reference in
      (* The replayed log is exactly what the memtable held: the writes
         since the last flush, so the staged replay must rebuild its
         entries and bytes, not just the reads. *)
      let size = Store.memtable_size ts and bytes = Store.memtable_bytes ts in
      Store.crash ts;
      ignore (Store.recover_all ts);
      Store.memtable_size ts = size
      && Store.memtable_bytes ts = bytes
      && List.for_all
        (fun k ->
          List.for_all
            (fun c ->
              let coord = (key_of k, col_of c) in
              same_cell (Store.read ts coord) (Store.read rs coord))
            (List.init cols Fun.id))
        (List.init keys Fun.id))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tiered_equals_reference;
    QCheck_alcotest.to_alcotest prop_tiered_survives_crash_recover;
  ]
