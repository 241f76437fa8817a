(* Indexed write-ahead log.

   The durable portion of the log is held as a per-cohort index rather than
   one flat list. Each cohort keeps its durable [Write] records in parallel
   arrays sorted by (LSN, durable order), live in [lo, hi): an LSN, op,
   timestamp, origin and durable-order stamp per record, so a record costs
   five array slots instead of a tree node and a slot record of its own, and
   indexing it path-copies nothing. Duplicate retransmissions
   sit next to the first copy and carry its payload; walks report only the
   first copy. Indexing a record is an O(1) append in the common case (its
   LSN is at least the last one) and a binary-search insert otherwise; range
   walks binary-search their start and scan forward; the first and last LSN
   are O(1). [gc_cohort] binary-searches its cut, advances [lo] and clears
   the dropped slots, and shrinks the arrays once fewer than a quarter of the
   slots are live, so a rolled-over log releases its ops. Marker records
   ([Commit_upto]/[Checkpoint]) are small newest-first lists with their
   maxima kept incrementally.

   The volatile tail is a FIFO queue with incremental byte accounting, so a
   group-commit force pays O(batch) to assemble its batch instead of
   re-walking (and re-reversing) the whole backlog. The in-flight batch is
   popped off the queue when the device force is submitted and indexed into
   the durable structures when it completes; a crash in between loses it,
   exactly as it loses the rest of the volatile tail. *)

type cohort_index = {
  mutable lsns : Lsn.t array;
  mutable ops : Log_record.op array;
  mutable stamps : int array;  (** record timestamps *)
  mutable origins : Log_record.origin option array;
  mutable gseqs : int array;  (** durable-order stamps *)
  mutable lo : int;  (** live [Write] records are the slots [lo, hi) *)
  mutable hi : int;
  mutable commits : (Lsn.t * int) list;  (** durable [Commit_upto] records, newest first *)
  mutable ckpts : (Lsn.t * Log_record.reply_cache * int) list;
      (** durable [Checkpoint] records, newest first *)
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

let cidx t cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | Some c -> c
  | None ->
    let c =
      {
        lsns = [||];
        ops = [||];
        stamps = [||];
        origins = [||];
        gseqs = [||];
        lo = 0;
        hi = 0;
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

(* What a cleared or spare slot holds: nothing a dropped record kept alive. *)
let no_op = Log_record.Batch []

let clear c ~from ~until =
  let n = until - from in
  Array.fill c.lsns from n Lsn.zero;
  Array.fill c.ops from n no_op;
  Array.fill c.origins from n None

(* Move the live slots to the front of fresh arrays of [cap] slots. *)
let resize c cap =
  let live = c.hi - c.lo in
  let move a fill =
    let b = Array.make cap fill in
    Array.blit a c.lo b 0 live;
    b
  in
  c.lsns <- move c.lsns Lsn.zero;
  c.ops <- move c.ops no_op;
  c.stamps <- move c.stamps 0;
  c.origins <- move c.origins None;
  c.gseqs <- move c.gseqs 0;
  c.lo <- 0;
  c.hi <- live

(* Make room for one more slot at [hi]: shift the live slots down when at
   least half the arrays lie free below [lo], else double them. *)
let ensure_room c =
  let cap = Array.length c.ops in
  if c.hi = cap then begin
    let live = c.hi - c.lo in
    if cap > 0 && 2 * live <= cap then begin
      let down a = Array.blit a c.lo a 0 live in
      down c.lsns;
      down c.ops;
      down c.stamps;
      down c.origins;
      down c.gseqs;
      clear c ~from:live ~until:c.hi;
      c.lo <- 0;
      c.hi <- live
    end
    else resize c (Stdlib.max 16 (2 * cap))
  end

(* The first live slot whose LSN is above [lsn], or [hi]. *)
let upper_bound c lsn =
  let lo = ref c.lo and hi = ref c.hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Lsn.compare c.lsns.(mid) lsn <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let set c at ~gseq lsn op timestamp origin =
  c.lsns.(at) <- lsn;
  c.ops.(at) <- op;
  c.stamps.(at) <- timestamp;
  c.origins.(at) <- origin;
  c.gseqs.(at) <- gseq

(* Records arrive in LSN order but for retransmissions and re-proposals,
   so the insert is an append unless the LSN is below the last one. A
   duplicate copy lands after the earlier ones and shares the first copy's
   payload. *)
let index_write c ~gseq lsn op timestamp origin =
  ensure_room c;
  let at =
    if c.hi = c.lo || Lsn.compare c.lsns.(c.hi - 1) lsn <= 0 then c.hi else upper_bound c lsn
  in
  if at < c.hi then begin
    let up a = Array.blit a at a (at + 1) (c.hi - at) in
    up c.lsns;
    up c.ops;
    up c.stamps;
    up c.origins;
    up c.gseqs
  end;
  let p = at - 1 in
  if at > c.lo && Lsn.equal c.lsns.(p) lsn then
    set c at ~gseq c.lsns.(p) c.ops.(p) c.stamps.(p) c.origins.(p)
  else set c at ~gseq lsn op timestamp origin;
  c.hi <- c.hi + 1

(* Index one record that just became durable. *)
let index_durable t (r : Log_record.t) =
  let c = cidx t r.cohort in
  t.gseq <- t.gseq + 1;
  t.durable_count <- t.durable_count + 1;
  match r.entry with
  | Log_record.Write { lsn; op; timestamp; origin } ->
    index_write c ~gseq:t.gseq lsn op timestamp origin
  | Log_record.Commit_upto lsn ->
    c.commits <- (lsn, t.gseq) :: c.commits;
    c.last_commit <- Lsn.max c.last_commit lsn
  | Log_record.Checkpoint { upto; replies } ->
    c.ckpts <- (upto, replies, t.gseq) :: c.ckpts;
    c.last_ckpt <- Lsn.max c.last_ckpt upto

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
      for i = c.lo to c.hi - 1 do
        all :=
          ( c.gseqs.(i),
            Log_record.write ~cohort ~lsn:c.lsns.(i) ~timestamp:c.stamps.(i)
              ?origin:c.origins.(i) c.ops.(i) )
          :: !all
      done;
      List.iter (fun (lsn, g) -> all := (g, Log_record.commit_upto ~cohort lsn) :: !all) c.commits;
      List.iter
        (fun (lsn, replies, g) -> all := (g, Log_record.checkpoint ~cohort ~replies lsn) :: !all)
        c.ckpts)
    t.cohorts;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !all |> List.map snd

let durable_count t = t.durable_count
let forces_issued t = t.forces_issued
let volatile_bytes t = t.volatile_bytes

let durable_writes t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with None -> 0 | Some c -> c.hi - c.lo

let last_write_lsn t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | Some c when c.hi > c.lo -> c.lsns.(c.hi - 1)
  | _ -> Lsn.zero

let last_commit_marker t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with None -> Lsn.zero | Some c -> c.last_commit

let last_checkpoint t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with None -> Lsn.zero | Some c -> c.last_ckpt

(* The newest checkpoint carrying the max value: the one [gc_cohort] keeps. *)
let last_checkpoint_replies t ~cohort =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> []
  | Some c -> (
    match List.find_opt (fun (lsn, _, _) -> Lsn.equal lsn c.last_ckpt) c.ckpts with
    | Some (_, replies, _) -> replies
    | None -> [])

let iter_durable_writes_in t ~cohort ~above ~upto f =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> ()
  | Some c ->
    (* Binary-search the first LSN above [above], then scan forward without
       allocating until an LSN passes [upto], reporting each LSN's first
       copy. *)
    let { lsns; ops; stamps; origins; hi; _ } = c in
    let i = ref (upper_bound c above) in
    while !i < hi && Lsn.(lsns.(!i) <= upto) do
      let first = !i in
      let lsn = lsns.(first) in
      incr i;
      while !i < hi && Lsn.equal lsns.(!i) lsn do
        incr i
      done;
      f lsn ops.(first) stamps.(first) origins.(first)
    done

(* The index ascends by (epoch, seq), so a seq sits at most once in each
   epoch's run: look it up there, then hop to the next epoch's run. *)
let write_lsns_at_seq t ~cohort ~above ~seq =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> []
  | Some c ->
    let rec hop i acc =
      if i >= c.hi then List.rev acc
      else begin
        let epoch = c.lsns.(i).Lsn.epoch in
        let lsn = Lsn.make ~epoch ~seq in
        let at = upper_bound c lsn - 1 in
        let acc = if at >= i && Lsn.equal c.lsns.(at) lsn then lsn :: acc else acc in
        hop (upper_bound c (Lsn.make ~epoch ~seq:max_int)) acc
      end
    in
    hop (upper_bound c above) []

let durable_writes_in t ~cohort ~above ~upto =
  let acc = ref [] in
  iter_durable_writes_in t ~cohort ~above ~upto (fun lsn op timestamp origin ->
      acc := (lsn, op, timestamp, origin) :: !acc);
  List.rev !acc

let gc_cohort t ~cohort ~upto =
  match Hashtbl.find_opt t.cohorts cohort with
  | None -> ()
  | Some c ->
    (* Cut at the first LSN above [upto]. Dropped slots are cleared, or the
       live ones move to arrays twice their count once they fill less than
       a quarter of the slots, so the log keeps no dropped op alive. *)
    let cut = upper_bound c upto and first = c.lo in
    t.durable_count <- t.durable_count - (cut - first);
    c.lo <- cut;
    if 4 * (c.hi - cut) < Array.length c.ops then resize c (2 * (c.hi - cut))
    else clear c ~from:first ~until:cut;
    (* Markers: keep only the newest record carrying the max value. *)
    let prune lsn_of records last =
      match List.find_opt (fun r -> Lsn.equal (lsn_of r) last) records with
      | Some newest -> ([ newest ], List.length records - 1)
      | None -> (records, 0)
    in
    let commits, removed_commits = prune fst c.commits c.last_commit in
    c.commits <- commits;
    let ckpts, removed_ckpts = prune (fun (lsn, _, _) -> lsn) c.ckpts c.last_ckpt in
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
      t.durable_count - (c.hi - c.lo) - List.length c.commits - List.length c.ckpts;
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
  | Some c when c.hi > c.lo -> Some c.lsns.(c.lo)
  | _ -> None
