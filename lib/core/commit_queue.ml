type entry = {
  lsn : Storage.Lsn.t;
  op : Storage.Log_record.op;
  timestamp : int;
  origin : Storage.Log_record.origin option;
  mutable forced : bool;
  mutable ackers : int list;
  repl_span : int option;
}

(* The queue proper is one array of entries sorted by LSN, live in [lo, hi).
   Writes arrive in LSN order and leave at the head, so the common add is an
   append and every pop advances [lo]; neither path-copies anything.
   The rest are incremental indexes that keep per-write work O(log n):
   under a saturating write load thousands of entries sit here at once,
   and full-queue walks on every version lookup, force completion and
   cumulative ack made the leader quadratic in its own backlog (the
   fig11-at-scale run spent ~40% of its wall clock inside
   [latest_version_for]). Each index mirrors the live slots exactly. *)
type t = {
  mutable slots : entry array;
  mutable lo : int;
  mutable hi : int;
  mutable forced_upto : int;
      (* every slot in [lo, forced_upto) is forced: a force-upto walks on
         from here, so it visits each entry about once over its lifetime
         instead of rescanning the already-forced prefix *)
  mutable versions : (Storage.Row.coord, (Storage.Lsn.t * int) list) Hashtbl.t option;
      (* coord -> pending (lsn, version), newest LSN first — the overlay the
         leader consults when assigning the next version. Built from the
         slots on the first lookup and maintained from then on, so a
         follower, which never looks a version up, pays nothing for it. *)
  acked_upto : (int, Storage.Lsn.t) Hashtbl.t;
      (* follower -> highest LSN whose cumulative ack has been APPLIED to
         entry ack lists; the next ack walks only (applied, upto] *)
  mutable frontier : (Storage.Lsn.t * Storage.Lsn.t) option;
      (* (from, last): the last non-empty answer of [contiguous_forced_upto].
         Forced flags only turn on, so the chain from the head through
         [last] stays valid until an entry at or below [last] is inserted
         or any entry is removed; both drop the memo. *)
}

let create () =
  {
    slots = [||];
    lo = 0;
    hi = 0;
    forced_upto = 0;
    versions = None;
    acked_upto = Hashtbl.create 8;
    frontier = None;
  }

(* What a cleared or spare slot holds: nothing a removed entry kept alive. *)
let vacant =
  {
    lsn = Storage.Lsn.zero;
    op = Storage.Log_record.Batch [];
    timestamp = 0;
    origin = None;
    forced = true;
    ackers = [];
    repl_span = None;
  }

let rec iter_writes f = function
  | Storage.Log_record.Put { key; col; version; _ } -> f (key, col) version
  | Storage.Log_record.Delete { key; col; version } -> f (key, col) version
  | Storage.Log_record.Batch ops -> List.iter (iter_writes f) ops
  | Storage.Log_record.Txn_resolve { commit = true; writes; _ } ->
    (* A committing resolve installs final data cells with real versions;
       they must participate in the pending-version overlay like any write.
       Intents and decisions live in system columns with version 0 and never
       feed version assignment. *)
    List.iter (fun (key, col, _, version) -> f (key, col) version) writes
  | Storage.Log_record.Install_cell { coord; cell } -> f coord cell.Storage.Row.version
  | Storage.Log_record.Txn_resolve { commit = false; _ }
  | Storage.Log_record.Txn_prepare _ | Storage.Log_record.Txn_decision _
  | Storage.Log_record.Cohort_change _ | Storage.Log_record.Split _ ->
    ()

let index_add t lsn op =
  match t.versions with
  | None -> ()
  | Some versions ->
    iter_writes
      (fun coord version ->
        (* Newest first; a tie (two writes to one coord in one batch) keeps
           the later op in front, matching the last-match-wins fold this
           replaces. *)
        let rec ins = function
          | [] -> [ (lsn, version) ]
          | ((l, _) :: _) as rest when Storage.Lsn.(l <= lsn) -> (lsn, version) :: rest
          | hd :: tl -> hd :: ins tl
        in
        let cur = match Hashtbl.find_opt versions coord with None -> [] | Some l -> l in
        Hashtbl.replace versions coord (ins cur))
      op

let index_remove t (e : entry) =
  match t.versions with
  | None -> ()
  | Some versions ->
    iter_writes
      (fun coord _ ->
        match Hashtbl.find_opt versions coord with
        | None -> ()
        | Some l -> (
          match List.filter (fun (l', _) -> not (Storage.Lsn.equal l' e.lsn)) l with
          | [] -> Hashtbl.remove versions coord
          | l -> Hashtbl.replace versions coord l))
      e.op

(* The first live slot whose LSN is above [lsn], or [hi]. Checks the tail
   first: most lookups are for the newest LSN or beyond it. *)
let upper_bound t lsn =
  if t.hi = t.lo || Storage.Lsn.(t.slots.(t.hi - 1).lsn <= lsn) then t.hi
  else
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) lsr 1 in
        if Storage.Lsn.(t.slots.(mid).lsn <= lsn) then go (mid + 1) hi else go lo mid
    in
    go t.lo t.hi

(* The live slot holding [lsn], or -1. *)
let index_of t lsn =
  let i = upper_bound t lsn - 1 in
  if i >= t.lo && Storage.Lsn.equal t.slots.(i).lsn lsn then i else -1

(* Make room for one more slot at [hi]: shift the live slots down when at
   least half the array lies free below [lo], else double it. *)
let ensure_room t =
  let cap = Array.length t.slots in
  if t.hi = cap then begin
    let live = t.hi - t.lo in
    let dst =
      if cap > 0 && 2 * live <= cap then t.slots
      else Array.make (Stdlib.max 16 (2 * cap)) vacant
    in
    Array.blit t.slots t.lo dst 0 live;
    if dst == t.slots then Array.fill t.slots live (t.hi - live) vacant;
    t.slots <- dst;
    t.forced_upto <- t.forced_upto - t.lo;
    t.lo <- 0;
    t.hi <- live
  end

(* Every removal funnels through here so the indexes never drift. An
   emptied queue restarts at slot 0, so a queue that drains between bursts
   never needs to shift. *)
let removed t (e : entry) =
  if t.lo = t.hi then begin
    t.lo <- 0;
    t.hi <- 0;
    t.forced_upto <- 0
  end;
  t.frontier <- None;
  index_remove t e

let add t ~lsn ~op ~timestamp ?origin ?repl_span () =
  let entry = { lsn; op; timestamp; origin; forced = false; ackers = []; repl_span } in
  ensure_room t;
  let at = upper_bound t lsn in
  if at > t.lo && Storage.Lsn.equal t.slots.(at - 1).lsn lsn then begin
    (* Re-adding a queued LSN replaces its entry, and its overlay pairs with
       it: pairs of the old op on other coordinates must not outlive it. *)
    index_remove t t.slots.(at - 1);
    t.slots.(at - 1) <- entry;
    t.forced_upto <- Stdlib.min t.forced_upto (at - 1)
  end
  else begin
    Array.blit t.slots at t.slots (at + 1) (t.hi - at);
    t.slots.(at) <- entry;
    t.hi <- t.hi + 1;
    t.forced_upto <- Stdlib.min t.forced_upto at
  end;
  index_add t lsn op;
  (* A new head, a back-filled entry or an unforced replacement at or below
     the memoized frontier can each break the chain it vouches for. *)
  (match t.frontier with
   | Some (_, last) when Storage.Lsn.(lsn <= last) -> t.frontier <- None
   | _ -> ());
  (* A takeover rebuild can re-introduce an LSN at or below a follower's
     applied-ack point (the previous incarnation was acked, then dropped on
     leader change). Acks must be earned by the current incarnation: rewind
     that follower's applied point so its next cumulative ack re-walks the
     range — re-marking already-acked entries is idempotent. *)
  let rewind =
    Hashtbl.fold
      (fun from applied acc -> if Storage.Lsn.(lsn <= applied) then from :: acc else acc)
      t.acked_upto []
  in
  List.iter (fun from -> Hashtbl.replace t.acked_upto from Storage.Lsn.zero) rewind

let mem t lsn = index_of t lsn >= 0
let is_empty t = t.lo = t.hi
let length t = t.hi - t.lo
let min_lsn t = if t.lo = t.hi then None else Some t.slots.(t.lo).lsn
let max_lsn t = if t.lo = t.hi then None else Some t.slots.(t.hi - 1).lsn

let mark_forced_upto t upto =
  let rec go i =
    if i < t.hi && Storage.Lsn.(t.slots.(i).lsn <= upto) then begin
      t.slots.(i).forced <- true;
      go (i + 1)
    end
    else t.forced_upto <- i
  in
  go t.forced_upto

let mark_forced t lsn =
  let i = index_of t lsn in
  if i >= 0 then t.slots.(i).forced <- true

let origin_at t lsn =
  let i = index_of t lsn in
  if i >= 0 then t.slots.(i).origin else None

let add_ack t ~from ~upto =
  let applied =
    match Hashtbl.find_opt t.acked_upto from with
    | Some l -> l
    | None -> Storage.Lsn.zero
  in
  if Storage.Lsn.(upto > applied) then begin
    let rec go i =
      if i < t.hi && Storage.Lsn.(t.slots.(i).lsn <= upto) then begin
        let e = t.slots.(i) in
        if not (List.mem from e.ackers) then e.ackers <- from :: e.ackers;
        go (i + 1)
      end
    in
    go (upper_bound t applied);
    Hashtbl.replace t.acked_upto from upto
  end

(* Remove and return, in LSN order, the head entries that satisfy [ok],
   stopping at the first that does not. *)
let pop_while t ok =
  let rec go acc =
    if t.lo < t.hi && ok t.slots.(t.lo) then begin
      let e = t.slots.(t.lo) in
      t.slots.(t.lo) <- vacant;
      t.lo <- t.lo + 1;
      t.forced_upto <- Stdlib.max t.forced_upto t.lo;
      removed t e;
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

let pop_committable t ~acks_needed =
  pop_while t (fun e -> e.forced && List.length e.ackers >= acks_needed)

let pop_upto t upto = pop_while t (fun e -> Storage.Lsn.(e.lsn <= upto))

(* Sequence numbers are globally contiguous per range (a new leader continues
   seq from its last LSN), so the committed prefix always has consecutive
   seqs. A hole in the seq chain means a propose was lost in flight: only the
   contiguous prefix may be applied. *)
let pop_contiguous t ~from ~upto =
  let next_seq = ref (from.Storage.Lsn.seq + 1) in
  pop_while t (fun e ->
      let ok = Storage.Lsn.(e.lsn <= upto) && e.lsn.Storage.Lsn.seq = !next_seq in
      if ok then incr next_seq;
      ok)

(* The chain must start at the head — a stranded entry at or below [from]
   honestly blocks acking. A repeated [from] resumes just past the memoized
   frontier, so a follower's ack costs O(new entries) rather than
   O(backlog). *)
let contiguous_forced_upto t ~from =
  let rec go i prev_seq best =
    if i < t.hi && t.slots.(i).forced && t.slots.(i).lsn.Storage.Lsn.seq = prev_seq + 1 then
      go (i + 1) t.slots.(i).lsn.Storage.Lsn.seq (Some t.slots.(i).lsn)
    else best
  in
  let best =
    match t.frontier with
    | Some (f, last) when Storage.Lsn.equal f from ->
      go (upper_bound t last) last.Storage.Lsn.seq (Some last)
    | _ -> go t.lo from.Storage.Lsn.seq None
  in
  t.frontier <- Option.map (fun last -> (from, last)) best;
  best

let remove t lsn =
  let i = index_of t lsn in
  if i < 0 then None
  else begin
    let e = t.slots.(i) in
    Array.blit t.slots (i + 1) t.slots i (t.hi - i - 1);
    t.hi <- t.hi - 1;
    t.slots.(t.hi) <- vacant;
    if t.forced_upto > i then t.forced_upto <- t.forced_upto - 1;
    removed t e;
    Some e
  end

let drop_above t lsn =
  let cut = upper_bound t lsn in
  let dropped = Array.to_list (Array.sub t.slots cut (t.hi - cut)) in
  Array.fill t.slots cut (t.hi - cut) vacant;
  t.hi <- cut;
  t.forced_upto <- Stdlib.min t.forced_upto cut;
  List.iter (removed t) dropped;
  dropped

let latest_version_for t coord =
  let versions =
    match t.versions with
    | Some versions -> versions
    | None ->
      (* Adding the live slots in LSN order yields the overlay that adding
         them as they came would have. *)
      let versions = Hashtbl.create 64 in
      t.versions <- Some versions;
      for i = t.lo to t.hi - 1 do
        index_add t t.slots.(i).lsn t.slots.(i).op
      done;
      versions
  in
  match Hashtbl.find_opt versions coord with
  | Some ((_, v) :: _) -> Some v
  | _ -> None

let current_version t store coord =
  match latest_version_for t coord with
  | Some v -> v
  | None -> Storage.Store.current_version store coord

let to_list t = Array.to_list (Array.sub t.slots t.lo (t.hi - t.lo))
