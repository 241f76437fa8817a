(* Differential test for the indexed WAL.

   Drives random schedules of append / force / run / crash / gc / drop /
   wipe through both the real {!Storage.Wal} and a naive model that
   reimplements the original list-of-records semantics (newest-first durable
   and volatile lists, whole-log folds for every query). After every step the
   two must agree on the durable record sequence and on all marker / range
   queries — proving the per-cohort index is a pure representation change.

   LSNs span two epochs of 300 sequence numbers each. Schedules mix random
   LSNs (out-of-order and duplicate inserts) with runs of ascending ones
   (the append path), and are long enough to grow a cohort's index arrays,
   shift them down after a shallow rollover and shrink them after a deep
   one.

   Duplicate-LSN appends (leader retransmissions) use a payload derived from
   the LSN, so both representations reconstruct identical records. *)

module Lsn = Storage.Lsn
module Wal = Storage.Wal
module Log_record = Storage.Log_record

let cohorts = 3

let per_epoch = 300

(* A position [n] in 0..2 * per_epoch names an LSN: 0 is [Lsn.zero], then
   epoch 1's sequence numbers, then epoch 2's. *)
let max_pos = 2 * per_epoch

let lsn n =
  if n = 0 then Lsn.zero
  else Lsn.make ~epoch:(1 + ((n - 1) / per_epoch)) ~seq:(1 + ((n - 1) mod per_epoch))

(* Payload is a function of (cohort, position): duplicate appends are
   identical. *)
let write_record ~cohort ~pos =
  Log_record.write ~cohort ~lsn:(lsn pos) ~timestamp:pos
    (Log_record.Put
       { key = Printf.sprintf "k%d-%d" cohort pos; col = "c"; value = "v"; version = pos })

type op =
  | Append_write of int * int  (** cohort, position *)
  | Append_run of int * int
      (** cohort, count: that many positions ascending from the cohort's last
          [Append_run] one, wrapping past [max_pos] to 1 *)
  | Append_commit of int * int
  | Append_ckpt of int * int
  | Force
  | Run
  | Crash
  | Gc of int * int  (** cohort, upto position *)
  | Trim of int * int  (** cohort, keep: gc up to [keep] below its last run position *)
  | Drop_cohort of int
  | Wipe

let op_gen =
  QCheck.Gen.(
    let cohort = int_bound (cohorts - 1) in
    let pos = int_range 1 max_pos in
    frequency
      [
        (6, map2 (fun c s -> Append_write (c, s)) cohort pos);
        (8, map2 (fun c n -> Append_run (c, n)) cohort (int_range 1 16));
        (3, map2 (fun c s -> Append_commit (c, s)) cohort pos);
        (3, map2 (fun c s -> Append_ckpt (c, s)) cohort pos);
        (8, return Force);
        (8, return Run);
        (2, return Crash);
        (2, map2 (fun c s -> Gc (c, s)) cohort (int_range 0 max_pos));
        (3, map2 (fun c k -> Trim (c, k)) cohort (int_range 0 100));
        (1, map (fun c -> Drop_cohort c) cohort);
        (1, return Wipe);
      ])

let pp_op = function
  | Append_write (c, s) -> Printf.sprintf "write(%d,%d)" c s
  | Append_run (c, n) -> Printf.sprintf "run(%d,%d)" c n
  | Append_commit (c, s) -> Printf.sprintf "commit(%d,%d)" c s
  | Append_ckpt (c, s) -> Printf.sprintf "ckpt(%d,%d)" c s
  | Force -> "force"
  | Run -> "run"
  | Crash -> "crash"
  | Gc (c, s) -> Printf.sprintf "gc(%d,%d)" c s
  | Trim (c, k) -> Printf.sprintf "trim(%d,%d)" c k
  | Drop_cohort c -> Printf.sprintf "drop(%d)" c
  | Wipe -> "wipe"

(* Range windows [(above, upto]] every check queries, two across the epoch
   boundary and one empty. *)
let fixed_windows = [ (0, max_pos); (100, 400); (per_epoch - 5, per_epoch + 5); (150, 150) ]

(* A schedule and three random windows to query beside the fixed ones. *)
let schedule_arb =
  QCheck.make
    ~print:(fun (ops, windows) ->
      String.concat "; " (List.map pp_op ops)
      ^ " | windows "
      ^ String.concat " " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d]" a b) windows))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 400) op_gen)
        (list_size (return 3) (pair (int_bound max_pos) (int_bound max_pos))))

(* --- the model: original list-based WAL semantics ------------------------ *)

type model = {
  mutable durable : Log_record.t list;  (** newest first *)
  mutable volatile : Log_record.t list;  (** newest first *)
  mutable appended_abs : int;  (** absolute index of last appended record *)
  mutable durable_abs : int;  (** absolute index of last durable record *)
  mutable target : int;  (** largest outstanding force target (absolute) *)
  mutable in_flight : (int * int) option;
      (** size of the batch under the device force and the absolute index it
          makes durable, if any *)
}

let max_batch = 4

let m_promote m n =
  let rev = List.rev m.volatile in
  let rec take i acc rest =
    if i = n then (acc, rest)
    else match rest with [] -> (acc, []) | r :: tl -> take (i + 1) (r :: acc) tl
  in
  let moved, remaining = take 0 [] rev in
  m.durable <- moved @ m.durable;
  m.volatile <- List.rev remaining

(* Batch sizes are fixed when the device force is issued — synchronously at
   the force call, or at a previous batch's completion — so records appended
   while a force is in flight wait for the next batch. A batch makes durable
   everything appended but not left volatile, so the absolute index counts
   records a [Drop_cohort] removed from the tail as done. *)
let m_kick m =
  if m.target > m.durable_abs && m.in_flight = None then begin
    let volatile = List.length m.volatile in
    let n = Stdlib.min max_batch volatile in
    m.in_flight <- Some (n, m.appended_abs - (volatile - n))
  end

(* Quiescence: complete in-flight batches (promoting each batch's records)
   and re-issue until every outstanding force target is durable. *)
let m_run m =
  let continue = ref true in
  while !continue do
    match m.in_flight with
    | None -> continue := false
    | Some (n, goal) ->
      m_promote m n;
      m.durable_abs <- Stdlib.max m.durable_abs goal;
      m.in_flight <- None;
      m_kick m
  done

let m_fold m ~cohort ~init f =
  List.fold_left
    (fun acc (r : Log_record.t) -> if r.cohort = cohort then f acc r.entry else acc)
    init m.durable

let m_last_write m ~cohort =
  m_fold m ~cohort ~init:Lsn.zero (fun acc -> function
    | Log_record.Write { lsn; _ } -> Lsn.max acc lsn
    | _ -> acc)

let m_last_commit m ~cohort =
  m_fold m ~cohort ~init:Lsn.zero (fun acc -> function
    | Log_record.Commit_upto lsn -> Lsn.max acc lsn
    | _ -> acc)

let m_last_ckpt m ~cohort =
  m_fold m ~cohort ~init:Lsn.zero (fun acc -> function
    | Log_record.Checkpoint { upto; _ } -> Lsn.max acc upto
    | _ -> acc)

let m_min_write m ~cohort =
  m_fold m ~cohort ~init:None (fun acc -> function
    | Log_record.Write { lsn; _ } -> Some (match acc with None -> lsn | Some x -> Lsn.min x lsn)
    | _ -> acc)

let m_write_records m ~cohort =
  m_fold m ~cohort ~init:0 (fun acc -> function Log_record.Write _ -> acc + 1 | _ -> acc)

let m_writes_in m ~cohort ~above ~upto =
  m_fold m ~cohort ~init:[] (fun acc -> function
    | Log_record.Write { lsn; op; timestamp; origin } when Lsn.(lsn > above) && Lsn.(lsn <= upto)
      ->
      (lsn, op, timestamp, origin) :: acc
    | _ -> acc)
  |> List.sort_uniq (fun (a, _, _, _) (b, _, _, _) -> Lsn.compare a b)

let m_gc m ~cohort ~upto =
  let last_commit = m_last_commit m ~cohort and last_ckpt = m_last_ckpt m ~cohort in
  let keep (r : Log_record.t) =
    if r.cohort <> cohort then true
    else
      match r.entry with
      | Log_record.Write { lsn; _ } -> Lsn.(lsn > upto)
      | Log_record.Commit_upto lsn -> Lsn.equal lsn last_commit
      | Log_record.Checkpoint { upto; _ } -> Lsn.equal upto last_ckpt
  in
  let seen_commit = ref false and seen_ckpt = ref false in
  let keep_once (r : Log_record.t) =
    if r.cohort <> cohort then true
    else
      match r.entry with
      | Log_record.Commit_upto _ ->
        if !seen_commit then false else (seen_commit := true; true)
      | Log_record.Checkpoint _ -> if !seen_ckpt then false else (seen_ckpt := true; true)
      | Log_record.Write _ -> true
  in
  m.durable <- List.filter (fun r -> keep r && keep_once r) m.durable

(* The in-flight batch is already on the device: only the records behind it
   leave the volatile tail. *)
let m_drop m ~cohort =
  let ours (r : Log_record.t) = r.cohort = cohort in
  m.durable <- List.filter (fun r -> not (ours r)) m.durable;
  let in_flight = match m.in_flight with Some (n, _) -> n | None -> 0 in
  let behind = List.length m.volatile - in_flight in
  m.volatile <- List.filteri (fun i r -> i >= behind || not (ours r)) m.volatile

(* --- the differential property ------------------------------------------- *)

let check_agreement ~windows ~step ~op wal m =
  let fail fmt = QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step (pp_op op) in
  if Wal.durable_records wal <> List.rev m.durable then fail "durable_records diverge";
  if Wal.durable_count wal <> List.length m.durable then fail "durable_count diverges";
  for cohort = 0 to cohorts - 1 do
    if not (Lsn.equal (Wal.last_write_lsn wal ~cohort) (m_last_write m ~cohort)) then
      fail "last_write_lsn diverges for cohort %d" cohort;
    if not (Lsn.equal (Wal.last_commit_marker wal ~cohort) (m_last_commit m ~cohort)) then
      fail "last_commit_marker diverges for cohort %d" cohort;
    if not (Lsn.equal (Wal.last_checkpoint wal ~cohort) (m_last_ckpt m ~cohort)) then
      fail "last_checkpoint diverges for cohort %d" cohort;
    if Wal.min_available_write_lsn wal ~cohort <> m_min_write m ~cohort then
      fail "min_available_write_lsn diverges for cohort %d" cohort;
    if Wal.durable_writes wal ~cohort <> m_write_records m ~cohort then
      fail "durable_writes diverges for cohort %d" cohort;
    List.iter
      (fun (above, upto) ->
        let above = lsn above and upto = lsn upto in
        let listed = Wal.durable_writes_in wal ~cohort ~above ~upto in
        if listed <> m_writes_in m ~cohort ~above ~upto then
          fail "durable_writes_in (%s,%s] diverges for cohort %d" (Lsn.to_string above)
            (Lsn.to_string upto) cohort;
        let walked = ref [] in
        Wal.iter_durable_writes_in wal ~cohort ~above ~upto (fun l op ts origin ->
            walked := (l, op, ts, origin) :: !walked);
        if List.rev !walked <> listed then
          fail "iter_durable_writes_in (%s,%s] disagrees with durable_writes_in for cohort %d"
            (Lsn.to_string above) (Lsn.to_string upto) cohort)
      (fixed_windows @ windows)
  done;
  true

let prop_differential =
  QCheck.Test.make ~name:"wal: indexed log = list-of-records model (differential)" ~count:300
    schedule_arb
    (fun (ops, windows) ->
      let engine = Sim.Engine.create () in
      let resource = Sim.Resource.create engine () in
      let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
      let wal =
        Wal.create engine ~disk:resource ~model ~rng:(Sim.Rng.create 7) ~max_batch ()
      in
      let m =
        {
          durable = [];
          volatile = [];
          appended_abs = 0;
          durable_abs = 0;
          target = 0;
          in_flight = None;
        }
      in
      let m_append r =
        m.volatile <- r :: m.volatile;
        m.appended_abs <- m.appended_abs + 1
      in
      let next = Array.make cohorts 0 in
      List.for_all
        (fun (step, op) ->
          (match op with
          | Append_write (cohort, pos) ->
            let r = write_record ~cohort ~pos in
            Wal.append wal r;
            m_append r
          | Append_run (cohort, n) ->
            for _ = 1 to n do
              next.(cohort) <- 1 + (next.(cohort) mod max_pos);
              let r = write_record ~cohort ~pos:next.(cohort) in
              Wal.append wal r;
              m_append r
            done
          | Append_commit (cohort, pos) ->
            let r = Log_record.commit_upto ~cohort (lsn pos) in
            Wal.append wal r;
            m_append r
          | Append_ckpt (cohort, pos) ->
            let r = Log_record.checkpoint ~cohort ~replies:[] (lsn pos) in
            Wal.append wal r;
            m_append r
          | Force ->
            Wal.force wal (fun () -> ());
            m.target <- Stdlib.max m.target m.appended_abs;
            m_kick m
          | Run ->
            Sim.Engine.run engine;
            m_run m
          | Crash ->
            Wal.crash wal;
            m.volatile <- [];
            m.appended_abs <- m.durable_abs;
            m.target <- m.durable_abs;
            m.in_flight <- None
          | Gc (cohort, upto) ->
            Wal.gc_cohort wal ~cohort ~upto:(lsn upto);
            m_gc m ~cohort ~upto:(lsn upto)
          | Trim (cohort, keep) ->
            let upto = lsn (Stdlib.max 0 (next.(cohort) - keep)) in
            Wal.gc_cohort wal ~cohort ~upto;
            m_gc m ~cohort ~upto
          | Drop_cohort cohort ->
            Wal.drop_cohort wal ~cohort;
            m_drop m ~cohort
          | Wipe ->
            Wal.wipe wal;
            m.durable <- [];
            m.volatile <- [];
            m.appended_abs <- m.durable_abs;
            m.target <- m.durable_abs;
            m.in_flight <- None);
          check_agreement ~windows ~step ~op wal m)
        (List.mapi (fun i op -> (i, op)) ops))

let suite = [ QCheck_alcotest.to_alcotest prop_differential ]
