module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Log_record = Storage.Log_record

type t = {
  store : Store.t;
  queue : Commit_queue.t;
  locks : (Row.coord, string) Hashtbl.t;
      (** base coordinate -> transaction holding a write intent there, granted
          when the prepare is appended (before it commits — the queue overlay
          alone cannot refuse a conflicting prepare racing in the same term) *)
  pending_decisions : (string, bool * int) Hashtbl.t;
      (** txn -> (commit, ts): decision appended this term, possibly not yet
          applied; first decision wins even against a racing status query *)
  resolving : (string, unit) Hashtbl.t;
      (** txns whose resolve record is appended but not yet applied
          (double-append guard for retried resolve requests) *)
}

let create ~store ~queue =
  { store; queue; locks = Hashtbl.create 16; pending_decisions = Hashtbl.create 16;
    resolving = Hashtbl.create 16 }

let reset t =
  Hashtbl.reset t.locks;
  Hashtbl.reset t.pending_decisions;
  Hashtbl.reset t.resolving

type verdict = Append of Log_record.op | Answer of Log_record.outcome | Refuse

(* The entries a transaction record takes in the tables once appended: a
   prepare locks its coordinates, a resolve releases them and guards against
   a second append, a decision is on record. *)
let appended t (op : Log_record.op) =
  match op with
  | Log_record.Txn_prepare { txn; writes; _ } ->
    List.iter (fun (key, col, _) -> Hashtbl.replace t.locks (key, col) txn) writes
  | Log_record.Txn_resolve { txn; writes; _ } ->
    Hashtbl.replace t.resolving txn ();
    List.iter (fun (key, col, _, _) -> Hashtbl.remove t.locks (key, col)) writes
  | Log_record.Txn_decision { txn; commit; ts; _ } ->
    Hashtbl.replace t.pending_decisions txn (commit, ts)
  | _ -> ()

let blocks_write t cells =
  List.exists
    (fun (key, col, _, _) ->
      Hashtbl.mem t.locks (key, col) || Store.intent_txn_at t.store (key, col) <> None)
    cells

(* A transaction's decision, if one is on record: appended this term (the
   in-memory table) or durably applied (the anchor's decision cell). *)
let existing_decision t ~anchor ~txn =
  match Hashtbl.find_opt t.pending_decisions txn with
  | Some d -> Some d
  | None -> (
    match Store.get t.store (anchor, Row.decision_col txn) with
    | Some { Row.value = Some payload; _ } -> Row.decode_decision payload
    | _ -> None)

let verdict t ~routes_here ~cmt ~ts (op : Message.client_op) =
  match op with
  | Message.Txn_prepare_req { txn; anchor; fence; fence_ts; writes } ->
    (* 2PC phase one: first-committer-wins conflict checks, then the write
       intents replicate through this participant's Paxos log. Locks are
       taken at append so a racing prepare in the same term cannot pass the
       same checks before this one commits. *)
    let conflicts (key, col, _) =
      let coord = (key, col) in
      (match Hashtbl.find_opt t.locks coord with
      | Some owner -> not (String.equal owner txn)
      | None -> false)
      || (match Store.intent_txn_at t.store coord with
         | Some owner -> not (String.equal owner txn)
         | None -> false)
      (* Any pending queued write on the coordinate will install a version
         newer than our snapshot — conflict without waiting. *)
      || Option.is_some (Commit_queue.latest_version_for t.queue coord)
      ||
      match Store.head_info t.store coord with
      | Some (_, Some committed_ts) -> committed_ts > fence_ts
      | Some (head_lsn, None) -> Lsn.(head_lsn > fence)
      | None -> false
    in
    if writes = [] || not (List.for_all (fun (key, _, _) -> routes_here key) writes) then
      Answer Log_record.Cross_range
    else if List.exists conflicts writes then Answer Log_record.Txn_conflict
    else Append (Log_record.Txn_prepare { txn; anchor; fence; writes })
  | Message.Txn_decide_req { txn; anchor; commit } -> (
    match existing_decision t ~anchor ~txn with
    | Some (commit, ts) ->
      (* First decision wins — a presumed abort may already have beaten a
         late commit request here; answer with what is on record. *)
      Answer (Log_record.Decided { commit; ts })
    | None ->
      (* With [commit = false] this is also the presumed-abort status query:
         no decision on record means the coordinator client may have died
         before asking for one, so logging an abort makes every in-doubt
         participant converge on it. *)
      Append (Log_record.Txn_decision { txn; anchor; commit; ts }))
  | Message.Txn_resolve_req { txn; key = _; commit; ts } -> (
    (* A resolve record already in flight this term makes acknowledging safe:
       resolution is guaranteed by that record or, should a leader change
       drop it, by the presumed-abort sweep. No intent left (already
       resolved, or the prepare never landed here) is idempotent success. *)
    match if Hashtbl.mem t.resolving txn then [] else Store.intents_of t.store txn with
    | [] -> Answer (Log_record.Written cmt)
    | intents ->
      (* Resolve every intent the transaction holds in this range, not just
         the addressed key: final cells are materialized here, at append
         time, with concrete versions — so replicas and recovery apply them
         like any other write. *)
      let writes =
        List.map
          (fun ((key, col), value) ->
            (key, col, value, Commit_queue.current_version t.queue t.store (key, col) + 1))
          intents
      in
      Append (Log_record.Txn_resolve { txn; commit; ts; writes }))
  | Message.Write _ | Message.Get _ | Message.Multi_get _ | Message.Scan _ | Message.Fence _
  | Message.Snap_get _ ->
    invalid_arg "Txn_participant.record: not a transaction request"

let record t ~routes_here ~cmt ~ts op =
  let v = verdict t ~routes_here ~cmt ~ts op in
  (match v with Append op -> appended t op | Answer _ | Refuse -> ());
  v

let applied t (op : Log_record.op) =
  match op with
  | Log_record.Txn_resolve { txn; _ } -> Hashtbl.remove t.resolving txn
  | Log_record.Txn_decision { txn; _ } -> Hashtbl.remove t.pending_decisions txn
  | _ -> ()

let rebuild t =
  reset t;
  List.iter
    (fun (txn, _, coords) -> List.iter (fun c -> Hashtbl.replace t.locks c txn) coords)
    (Store.live_intents t.store);
  List.iter (fun (e : Commit_queue.entry) -> appended t e.op) (Commit_queue.to_list t.queue)

(* The age at which an unresolved intent counts as in-doubt is old enough
   that a live coordinator client would have resolved it already. *)
let sweep_period = Sim.Sim_time.sec 2
let indoubt_after = Sim.Sim_time.sec 4

let in_doubt t ~now =
  List.filter
    (fun (txn, _, _) -> not (Hashtbl.mem t.resolving txn))
    (Store.in_doubt t.store ~now ~older_than:(Sim.Sim_time.to_us indoubt_after))

let tables t =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  (sorted t.locks, sorted t.pending_decisions, List.map fst (sorted t.resolving))
