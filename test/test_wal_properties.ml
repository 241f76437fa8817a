(* Property tests driving the WAL through random append / force / crash /
   GC schedules, checking the durability contract:

   - the durable log is always a prefix of what was appended (no holes, no
     reordering, no resurrection after a crash);
   - force callbacks fire iff the records appended before the force survive;
   - gc never removes records above its horizon and never touches other
     cohorts. *)

module Wal = Storage.Wal
module Lsn = Storage.Lsn
module Log_record = Storage.Log_record

type op = Append of int (* cohort *) | Force | Crash | Run_ms of int | Gc of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun c -> Append (c mod 3)) (int_bound 2));
        (3, return Force);
        (1, return Crash);
        (3, map (fun ms -> Run_ms (1 + (ms mod 30))) (int_bound 29));
        (1, map (fun c -> Gc (c mod 3)) (int_bound 2));
      ])

let arb_ops = QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let run_schedule ops =
  let engine = Sim.Engine.create ~seed:9 () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 3) ~max_batch:4 () in
  (* Model state *)
  let appended = Array.make 3 [] in  (* per cohort, newest first: seq list *)
  let seqs = Array.make 3 0 in
  let forced_watermark = Array.make 3 0 in  (* per cohort seq known durable *)
  let gc_floor = Array.make 3 0 in
  let ok = ref true in
  let check_prefix () =
    (* Durable records per cohort must be a contiguous ascending seq run
       within (gc_floor, watermark-or-beyond]. *)
    for c = 0 to 2 do
      let writes = Wal.durable_writes_in wal ~cohort:c ~above:Lsn.zero ~upto:(Lsn.make ~epoch:99 ~seq:0) in
      let seqs_durable = List.map (fun (l, _, _, _) -> l.Lsn.seq) writes in
      let rec contiguous = function
        | a :: (b :: _ as rest) -> b = a + 1 && contiguous rest
        | _ -> true
      in
      if not (contiguous seqs_durable) then ok := false;
      (* Everything known-forced below the GC floor is gone; above it, the
         forced prefix must be present. *)
      List.iter
        (fun s -> if s > gc_floor.(c) && s <= forced_watermark.(c) then
            if not (List.mem s seqs_durable) then ok := false)
        (List.init forced_watermark.(c) (fun i -> i + 1))
    done
  in
  List.iter
    (fun op ->
      match op with
      | Append c ->
        seqs.(c) <- seqs.(c) + 1;
        let seq = seqs.(c) in
        Wal.append wal
          (Log_record.write ~cohort:c ~lsn:(Lsn.make ~epoch:1 ~seq) ~timestamp:0
             (Log_record.Put { key = string_of_int seq; col = "c"; value = "v"; version = seq }));
        appended.(c) <- seq :: appended.(c)
      | Force ->
        (* Snapshot what this force covers; on completion that prefix must be
           durable. *)
        let snapshot = Array.copy seqs in
        Wal.force wal (fun () ->
            for c = 0 to 2 do
              forced_watermark.(c) <- Stdlib.max forced_watermark.(c) snapshot.(c)
            done)
      | Crash ->
        Wal.crash wal;
        (* Unforced tail is gone: roll the model back to the durable state. *)
        for c = 0 to 2 do
          let lst = (Wal.last_write_lsn wal ~cohort:c).Lsn.seq in
          seqs.(c) <- lst;
          appended.(c) <- List.filter (fun s -> s <= lst) appended.(c)
        done
      | Run_ms ms -> Sim.Engine.run_for engine (Sim.Sim_time.ms ms)
      | Gc c ->
        let upto = forced_watermark.(c) / 2 in
        if upto > 0 then begin
          Wal.gc_cohort wal ~cohort:c ~upto:(Lsn.make ~epoch:1 ~seq:upto);
          gc_floor.(c) <- Stdlib.max gc_floor.(c) upto
        end)
    ops;
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  for c = 0 to 2 do
    forced_watermark.(c) <- forced_watermark.(c)  (* final forces completed above *)
  done;
  check_prefix ();
  !ok

let prop_durable_prefix =
  QCheck.Test.make ~name:"wal: durable log is a contiguous per-cohort prefix" ~count:120
    arb_ops run_schedule

let prop_force_callbacks_cover_their_records =
  QCheck.Test.make ~name:"wal: force callback implies records durable" ~count:80
    QCheck.(int_range 1 40)
    (fun n ->
      let engine = Sim.Engine.create ~seed:4 () in
      let disk = Sim.Resource.create engine () in
      let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
      let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 3) ~max_batch:3 () in
      let ok = ref true in
      for seq = 1 to n do
        Wal.append_and_force wal
          (Log_record.write ~cohort:0 ~lsn:(Lsn.make ~epoch:1 ~seq) ~timestamp:0
             (Log_record.Put { key = "k"; col = "c"; value = "v"; version = seq }))
          (fun () ->
            (* At callback time this record (and its predecessors) are durable. *)
            if (Wal.last_write_lsn wal ~cohort:0).Lsn.seq < seq then ok := false)
      done;
      Sim.Engine.run_for engine (Sim.Sim_time.sec 5);
      !ok && (Wal.last_write_lsn wal ~cohort:0).Lsn.seq = n)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_durable_prefix;
    QCheck_alcotest.to_alcotest prop_force_callbacks_cover_their_records;
  ]
