(* Indexed write-ahead log.

   The durable portion of the log is held as a per-cohort index rather than
   one flat list: each cohort keeps its durable [Write] records in an
   LSN-keyed map (duplicate retransmissions collapse into one slot that
   remembers every copy), its marker records ([Commit_upto]/[Checkpoint]) as
   small newest-first lists, and its marker maxima incrementally. Recovery,
   catch-up, and takeover queries therefore cost O(log n + answer) instead of
   O(total log), and [gc_cohort] touches only the cohort being rolled over.

   The volatile tail is a FIFO queue with incremental byte accounting, so a
   group-commit force pays O(batch) to assemble its batch instead of
   re-walking (and re-reversing) the whole backlog. The in-flight batch is
   popped off the queue when the device force is submitted and indexed into
   the durable structures when it completes; a crash in between loses it,
   exactly as it loses the rest of the volatile tail. *)

module Lsn_map = Map.Make (struct
  type t = Lsn.t

  let compare = Lsn.compare
end)

type write_slot = {
  op : Log_record.op;
  timestamp : int;
  origin : Log_record.origin option;
  gseqs : int list;  (** durable-order stamps, oldest first; >1 means duplicate copies *)
}

type cohort_index = {
  mutable writes : write_slot Lsn_map.t;
  mutable write_records : int;  (** durable [Write] records, duplicate copies included *)
  mutable commits : (Lsn.t * int) list;  (** durable [Commit_upto] records, newest first *)
  mutable ckpts : (Lsn.t * int) list;  (** durable [Checkpoint] records, newest first *)
  mutable last_commit : Lsn.t;  (** max over [commits]; maintained incrementally *)
  mutable last_ckpt : Lsn.t;  (** max over [ckpts]; maintained incrementally *)
}

type t = {
  engine : Sim.Engine.t;
  disk : Sim.Resource.t;
  model : Sim.Disk_model.t;
  rng : Sim.Rng.t;
  cohorts : (int, cohort_index) Hashtbl.t;
  mutable gseq : int;  (** global durable-order stamp, for [durable_records] *)
  mutable durable_count : int;
  volatile : Log_record.t Queue.t;  (** oldest first *)
  mutable volatile_count : int;
  mutable volatile_bytes : int;  (** incremental byte accounting for group commit *)
  mutable in_flight_batch : Log_record.t list;  (** oldest first; volatile until the force lands *)
  mutable appended_total : int;  (** absolute index of last appended record *)
  mutable durable_total : int;  (** absolute index of last durable record *)
  waiters : (int * (unit -> unit)) Queue.t;
      (** (target, callback); targets are monotone (appended_total at force
          time), so the queue is sorted and the ready prefix pops in O(ready) *)
  mutable force_in_flight : bool;
  mutable forces_issued : int;
  mutable incarnation : int;
  max_batch : int;
}

let create engine ~disk ~model ~rng ?(max_batch = 16) () =
  {
    engine;
    disk;
    model;
    rng;
    max_batch;
    cohorts = Hashtbl.create 8;
    gseq = 0;
    durable_count = 0;
    volatile = Queue.create ();
    volatile_count = 0;
    volatile_bytes = 0;
    in_flight_batch = [];
    appended_total = 0;
    durable_total = 0;
    waiters = Queue.create ();
    force_in_flight = false;
    forces_issued = 0;
    incarnation = 0;
  }

let model t = t.model

let cidx t cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | Some c -> c
  | None ->
    let c =
      {
        writes = Lsn_map.empty;
        write_records = 0;
        commits = [];
        ckpts = [];
        last_commit = Lsn.zero;
        last_ckpt = Lsn.zero;
      }
    in
    Hashtbl.add t.cohorts cohort c;
    c

let append t record =
  Queue.push record t.volatile;
  t.volatile_count <- t.volatile_count + 1;
  t.volatile_bytes <- t.volatile_bytes + Log_record.approx_bytes record;
  t.appended_total <- t.appended_total + 1

(* Index one record that just became durable. *)
let index_durable t (r : Log_record.t) =
  let c = cidx t r.cohort in
  t.gseq <- t.gseq + 1;
  t.durable_count <- t.durable_count + 1;
  match r.entry with
  | Log_record.Write { lsn; op; timestamp; origin } ->
    c.write_records <- c.write_records + 1;
    let slot =
      match Lsn_map.find_opt lsn c.writes with
      | Some slot -> { slot with gseqs = slot.gseqs @ [ t.gseq ] }
      | None -> { op; timestamp; origin; gseqs = [ t.gseq ] }
    in
    c.writes <- Lsn_map.add lsn slot c.writes
  | Log_record.Commit_upto lsn ->
    c.commits <- (lsn, t.gseq) :: c.commits;
    c.last_commit <- Lsn.max c.last_commit lsn
  | Log_record.Checkpoint lsn ->
    c.ckpts <- (lsn, t.gseq) :: c.ckpts;
    c.last_ckpt <- Lsn.max c.last_ckpt lsn

let rec kick t =
  (* Waiters are sorted by target (appends are monotone), so the satisfied
     prefix is exactly the queue front — no full-list partition per force. *)
  while
    (not (Queue.is_empty t.waiters)) && fst (Queue.peek t.waiters) <= t.durable_total
  do
    let _, k = Queue.pop t.waiters in
    k ()
  done;
  if (not (Queue.is_empty t.waiters)) && not t.force_in_flight then begin
    t.force_in_flight <- true;
    t.forces_issued <- t.forces_issued + 1;
    (* Group commit: one device force covers up to [max_batch] of the records
       appended so far; the rest wait for the next force. The batch is the
       oldest [moving] volatile records — popped now, indexed on completion. *)
    let moving = Stdlib.min t.volatile_count t.max_batch in
    let batch = ref [] and batch_bytes = ref 0 in
    for _ = 1 to moving do
      let r = Queue.pop t.volatile in
      batch := r :: !batch;
      batch_bytes := !batch_bytes + Log_record.approx_bytes r
    done;
    t.volatile_count <- t.volatile_count - moving;
    t.volatile_bytes <- t.volatile_bytes - !batch_bytes;
    t.in_flight_batch <- List.rev !batch;
    let goal = t.appended_total - t.volatile_count in
    let incarnation = t.incarnation in
    let service =
      Sim.Sim_time.span_add
        (Sim.Distribution.sample_span (Sim.Disk_model.force_service t.model) t.rng)
        (Sim.Sim_time.of_us_f
           (float_of_int !batch_bytes /. Sim.Disk_model.write_bandwidth_bytes_per_sec t.model
          *. 1e6))
    in
    Sim.Resource.submit t.disk ~service (fun () ->
        if t.incarnation = incarnation then begin
          t.force_in_flight <- false;
          List.iter (index_durable t) t.in_flight_batch;
          t.in_flight_batch <- [];
          t.durable_total <- Stdlib.max t.durable_total goal;
          kick t
        end)
  end

let force t k =
  Queue.push (t.appended_total, k) t.waiters;
  kick t

let append_and_force t record k =
  append t record;
  force t k

let crash t =
  t.incarnation <- t.incarnation + 1;
  Queue.clear t.volatile;
  t.volatile_count <- 0;
  t.volatile_bytes <- 0;
  t.in_flight_batch <- [];
  t.appended_total <- t.durable_total;
  Queue.clear t.waiters;
  t.force_in_flight <- false

let wipe t =
  crash t;
  Hashtbl.reset t.cohorts;
  t.durable_count <- 0

let durable_records t =
  let all = ref [] in
  Hashtbl.iter
    (fun cohort c ->
      Lsn_map.iter
        (fun lsn slot ->
          List.iter
            (fun g ->
              all :=
                ( g,
                  Log_record.write ~cohort ~lsn ~timestamp:slot.timestamp ?origin:slot.origin
                    slot.op )
                :: !all)
            slot.gseqs)
        c.writes;
      List.iter (fun (lsn, g) -> all := (g, Log_record.commit_upto ~cohort lsn) :: !all) c.commits;
      List.iter (fun (lsn, g) -> all := (g, Log_record.checkpoint ~cohort lsn) :: !all) c.ckpts)
    t.cohorts;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !all |> List.map snd

let durable_count t = t.durable_count
let forces_issued t = t.forces_issued
let volatile_bytes t = t.volatile_bytes

let last_write_lsn t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> Lsn.zero
  | Some c -> (
    match Lsn_map.max_binding_opt c.writes with Some (lsn, _) -> lsn | None -> Lsn.zero)

let last_commit_marker t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with None -> Lsn.zero | Some c -> c.last_commit

let last_checkpoint t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with None -> Lsn.zero | Some c -> c.last_ckpt

let iter_durable_writes_in t ~cohort ~above ~upto f =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> ()
  | Some c -> (
    (* Cut the LSN index at [above] in O(log n), then walk the rest in order
       without allocating, until an LSN passes [upto]. *)
    let exception Past_upto in
    let _, _, above_only = Lsn_map.split above c.writes in
    try
      Lsn_map.iter
        (fun lsn slot ->
          if Lsn.(lsn > upto) then raise_notrace Past_upto;
          f lsn slot.op slot.timestamp slot.origin)
        above_only
    with Past_upto -> ())

let durable_writes_in t ~cohort ~above ~upto =
  let acc = ref [] in
  iter_durable_writes_in t ~cohort ~above ~upto (fun lsn op timestamp origin ->
      acc := (lsn, op, timestamp, origin) :: !acc);
  List.rev !acc

let gc_cohort t ~cohort ~upto =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> ()
  | Some c ->
    let keep, dropped = Lsn_map.partition (fun lsn _ -> Lsn.(lsn > upto)) c.writes in
    let removed = Lsn_map.fold (fun _ slot acc -> acc + List.length slot.gseqs) dropped 0 in
    c.writes <- keep;
    c.write_records <- c.write_records - removed;
    t.durable_count <- t.durable_count - removed;
    (* Markers: keep only the newest record carrying the max value. *)
    let prune records last =
      match List.find_opt (fun (lsn, _) -> Lsn.equal lsn last) records with
      | Some newest -> ([ newest ], List.length records - 1)
      | None -> (records, 0)
    in
    let commits, removed_commits = prune c.commits c.last_commit in
    c.commits <- commits;
    let ckpts, removed_ckpts = prune c.ckpts c.last_ckpt in
    c.ckpts <- ckpts;
    t.durable_count <- t.durable_count - removed_commits - removed_ckpts

let drop_cohort t ~cohort =
  (* Any volatile/in-flight records for the cohort become no-ops once the
     index is gone: they are indexed into a fresh (empty) cohort_index if a
     force lands later, which only matters if the cohort is re-created — and
     a re-created cohort starts from a wiped store anyway. Simpler and safe
     to drop just the durable index here. *)
  (match Hashtbl.find_opt t.cohorts cohort with
  | None -> ()
  | Some c ->
    t.durable_count <-
      t.durable_count - c.write_records - List.length c.commits - List.length c.ckpts;
    Hashtbl.remove t.cohorts cohort);
  (* Volatile records for the cohort must not resurrect markers after the
     drop: filter them out of the tail (the in-flight batch, if any, is
     already on the device and will re-index into a fresh empty slot, which
     recovery treats the same as absent for a wiped store). *)
  let keep = Queue.create () in
  Queue.iter
    (fun (r : Log_record.t) ->
      if r.cohort <> cohort then Queue.push r keep
      else begin
        t.volatile_count <- t.volatile_count - 1;
        t.volatile_bytes <- t.volatile_bytes - Log_record.approx_bytes r
      end)
    t.volatile;
  Queue.clear t.volatile;
  Queue.transfer keep t.volatile

let min_available_write_lsn t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> None
  | Some c -> (
    match Lsn_map.min_binding_opt c.writes with Some (lsn, _) -> Some lsn | None -> None)
