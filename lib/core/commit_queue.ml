type entry = {
  lsn : Storage.Lsn.t;
  op : Storage.Log_record.op;
  timestamp : int;
  origin : Storage.Log_record.origin option;
  mutable forced : bool;
  mutable ackers : int list;
  reply : (unit -> unit) option;
}

module Lsn_map = Map.Make (struct
  type t = Storage.Lsn.t

  let compare = Storage.Lsn.compare
end)

(* The queue proper is the LSN-ordered map. The rest are incremental indexes
   that keep per-write work O(log n): under a deep replication pipeline
   thousands of entries sit here at once, and full-queue walks on every
   version lookup, force completion and cumulative ack made the leader
   quadratic in its own backlog (the fig11-at-scale run spent ~40% of its
   wall clock inside [latest_version_for]). Each index mirrors [entries]
   exactly; semantics are unchanged, only the walks are memoized. *)
type t = {
  mutable entries : entry Lsn_map.t;
  mutable unforced : entry Lsn_map.t;
      (* the [forced = false] subset: a force-upto visits each entry once
         over its lifetime instead of rescanning the already-forced prefix *)
  versions : (Storage.Row.coord, (Storage.Lsn.t * int) list) Hashtbl.t;
      (* coord -> pending (lsn, version), newest LSN first — the overlay the
         leader consults when assigning the next version *)
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
    entries = Lsn_map.empty;
    unforced = Lsn_map.empty;
    versions = Hashtbl.create 64;
    acked_upto = Hashtbl.create 8;
    frontier = None;
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
  iter_writes
    (fun coord version ->
      (* Newest first; a tie (two writes to one coord in one batch) keeps the
         later op in front, matching the last-match-wins fold this replaces. *)
      let rec ins = function
        | [] -> [ (lsn, version) ]
        | ((l, _) :: _) as rest when Storage.Lsn.(l <= lsn) -> (lsn, version) :: rest
        | hd :: tl -> hd :: ins tl
      in
      let cur = match Hashtbl.find_opt t.versions coord with None -> [] | Some l -> l in
      Hashtbl.replace t.versions coord (ins cur))
    op

let index_remove t (e : entry) =
  iter_writes
    (fun coord _ ->
      match Hashtbl.find_opt t.versions coord with
      | None -> ()
      | Some l -> (
        match List.filter (fun (l', _) -> not (Storage.Lsn.equal l' e.lsn)) l with
        | [] -> Hashtbl.remove t.versions coord
        | l -> Hashtbl.replace t.versions coord l))
    e.op

(* Every removal funnels through here so the indexes never drift. *)
let remove_entry t (e : entry) =
  t.entries <- Lsn_map.remove e.lsn t.entries;
  if not e.forced then t.unforced <- Lsn_map.remove e.lsn t.unforced;
  t.frontier <- None;
  index_remove t e

let add t ~lsn ~op ~timestamp ?origin ?reply () =
  let entry = { lsn; op; timestamp; origin; forced = false; ackers = []; reply } in
  t.entries <- Lsn_map.add lsn entry t.entries;
  t.unforced <- Lsn_map.add lsn entry t.unforced;
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

let mem t lsn = Lsn_map.mem lsn t.entries
let is_empty t = Lsn_map.is_empty t.entries
let length t = Lsn_map.cardinal t.entries
let min_lsn t = Option.map fst (Lsn_map.min_binding_opt t.entries)
let max_lsn t = Option.map fst (Lsn_map.max_binding_opt t.entries)

let mark_forced_upto t upto =
  let rec go () =
    match Lsn_map.min_binding_opt t.unforced with
    | Some (lsn, e) when Storage.Lsn.(lsn <= upto) ->
      e.forced <- true;
      t.unforced <- Lsn_map.remove lsn t.unforced;
      go ()
    | _ -> ()
  in
  go ()

let mark_forced t lsn =
  match Lsn_map.find_opt lsn t.entries with
  | Some e ->
    if not e.forced then begin
      e.forced <- true;
      t.unforced <- Lsn_map.remove lsn t.unforced
    end
  | None -> ()

let origin_at t lsn =
  match Lsn_map.find_opt lsn t.entries with Some e -> e.origin | None -> None

let add_ack t ~from ~upto =
  let applied =
    match Hashtbl.find_opt t.acked_upto from with
    | Some l -> l
    | None -> Storage.Lsn.zero
  in
  if Storage.Lsn.(upto > applied) then begin
    let rec go seq =
      match seq () with
      | Seq.Cons ((lsn, e), rest) when Storage.Lsn.(lsn <= upto) ->
        if not (List.mem from e.ackers) then e.ackers <- from :: e.ackers;
        go rest
      | _ -> ()
    in
    go
      (Lsn_map.to_seq_from applied t.entries
      |> Seq.drop_while (fun (l, _) -> Storage.Lsn.(l <= applied)));
    Hashtbl.replace t.acked_upto from upto
  end

let pop_committable t ~acks_needed =
  let rec go acc =
    match Lsn_map.min_binding_opt t.entries with
    | Some (_, e) when e.forced && List.length e.ackers >= acks_needed ->
      remove_entry t e;
      go (e :: acc)
    | _ -> List.rev acc
  in
  go []

let pop_upto t upto =
  let rec go acc =
    match Lsn_map.min_binding_opt t.entries with
    | Some (lsn, e) when Storage.Lsn.(lsn <= upto) ->
      remove_entry t e;
      go (e :: acc)
    | _ -> List.rev acc
  in
  go []

(* Sequence numbers are globally contiguous per range (a new leader continues
   seq from its last LSN), so the committed prefix always has consecutive
   seqs. A hole in the seq chain means a propose was lost in flight: only the
   contiguous prefix may be applied. *)
let pop_contiguous t ~from ~upto =
  let rec go prev_seq acc =
    match Lsn_map.min_binding_opt t.entries with
    | Some (lsn, e)
      when Storage.Lsn.(lsn <= upto) && lsn.Storage.Lsn.seq = prev_seq + 1 ->
      remove_entry t e;
      go lsn.Storage.Lsn.seq (e :: acc)
    | _ -> List.rev acc
  in
  go from.Storage.Lsn.seq []

(* The chain must start at the map's first binding — a stranded entry at or
   below [from] honestly blocks acking, as before; the lazy sequence just
   avoids materializing the whole map to find the (usually short) chain. A
   repeated [from] resumes just past the memoized frontier, so a follower's
   ack costs O(new entries) rather than O(backlog). *)
let contiguous_forced_upto t ~from =
  let rec go prev_seq best seq =
    match seq () with
    | Seq.Cons ((lsn, e), rest) when lsn.Storage.Lsn.seq = prev_seq + 1 && e.forced ->
      go lsn.Storage.Lsn.seq (Some lsn) rest
    | _ -> best
  in
  let best =
    match t.frontier with
    | Some (f, last) when Storage.Lsn.equal f from ->
      go last.Storage.Lsn.seq (Some last) (Seq.drop 1 (Lsn_map.to_seq_from last t.entries))
    | _ -> go from.Storage.Lsn.seq None (Lsn_map.to_seq t.entries)
  in
  t.frontier <- Option.map (fun last -> (from, last)) best;
  best

let drop_above t lsn =
  let dropped =
    Lsn_map.fold
      (fun l e acc -> if Storage.Lsn.(l <= lsn) then acc else e :: acc)
      t.entries []
  in
  List.iter (fun e -> remove_entry t e) dropped;
  List.rev dropped

let latest_version_for t coord =
  match Hashtbl.find_opt t.versions coord with
  | Some ((_, v) :: _) -> Some v
  | _ -> None

let to_list t = List.map snd (Lsn_map.bindings t.entries)
