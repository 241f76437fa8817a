type read_result = { value : string option; version : int }

type error =
  | Version_mismatch of { current : int }
  | Timed_out
  | Cross_range
  | Conflict

type pending = {
  op : Message.client_op;
  deliver : Message.client_reply -> unit;
  mutable attempts : int;
  mutable deadline : Sim.Sim_time.t;
      (** timeout deadline of the outstanding attempt; [Sim_time.zero] when no
          attempt is in flight (reply arrived, or a retry is backing off) *)
  trace_id : int;
  span : int;  (** open [request] span; 0 when the client has no trace *)
  started : Sim.Sim_time.t;  (** submit instant (flight-recorder latency) *)
  mutable to_leader : bool;
      (** route the next attempt to the leader even for a timeline read — set
          when a replica redirected us with [Not_leader] (a token read hit its
          staleness bound on a lagging follower) *)
}

type t = {
  id : int;
  engine : Sim.Engine.t;
  net : Message.t Sim.Network.t;
  partition : Partition.t;
  config : Config.t;
  rng : Sim.Rng.t;
  lookup_leader : range:int -> (int option -> unit) -> unit;
  fetch_layout : (string option -> unit) -> unit;
      (** read the serialized routing table published on /layout; the client
          refreshes its cached copy on a [Wrong_range] redirect *)
  trace : Sim.Trace.t option;
  flight : Sim.Trace.Flight.t option;
      (** outlier flight recorder; fed every completed request so the
          slowest ones keep their trace events pinned past ring eviction *)
  (* Direct-mapped pending table: request ids are monotone, so slot
     [rid mod capacity] is collision-free as long as the capacity exceeds the
     live id window — the table doubles on collision. Replaces a per-request
     Hashtbl replace/find/remove triple on the hot path. *)
  mutable pending_rid : int array;  (** -1 = empty slot *)
  mutable pending_slot : pending option array;
  mutable leaders : int array;  (** leader per range id; -1 = unknown *)
  mutable tokens : Storage.Lsn.t array;
      (** read-your-writes fence per range: the highest commit LSN returned by
          [Written] for a write we issued there. Timeline reads carry it so a
          follower holds the read until its applied state covers our writes. *)
  timeouts : (int * Sim.Sim_time.t) Queue.t;
      (** (request_id, deadline) in dispatch order. [client_timeout] is a
          constant span, so deadlines are FIFO and one armed engine timer per
          client covers them all — the per-request heap timer (pushed and
          lazily cancelled 99.9% of the time) was a top line in the read-bench
          profile. Entries whose request completed or was re-dispatched go
          stale in place ([p.deadline] no longer matches) and are skipped when
          the sweep reaches them; fire times of real timeouts are exact. *)
  mutable timeout_armed : bool;
  mutable next_request : int;
  mutable floor : int;
      (** completion floor: every id below it has settled (answered or given
          up), so cohorts may forget those outcomes; sent in every request *)
  mutable rr : int;
  mutable retries : int;
}

let id t = t.id
let retries t = t.retries

let op_name = function
  | Message.Get _ -> "get"
  | Message.Multi_get _ -> "multi_get"
  | Message.Scan _ -> "scan"
  | Message.Write { cells = [ (_, _, Some _, None) ] } -> "put"
  | Message.Write { cells = [ (_, _, None, None) ] } -> "delete"
  | Message.Write { cells = [ (_, _, Some _, Some _) ] } -> "conditional_put"
  | Message.Write { cells = [ (_, _, None, Some _) ] } -> "conditional_delete"
  | Message.Write _ -> "write"
  | Message.Fence _ -> "fence"
  | Message.Snap_get _ -> "snap_get"
  | Message.Txn_prepare_req _ -> "txn_prepare"
  | Message.Txn_decide_req _ -> "txn_decide"
  | Message.Txn_resolve_req _ -> "txn_resolve"

let reply_name = function
  | Message.Written _ -> "written"
  | Message.Value _ -> "value"
  | Message.Values _ -> "values"
  | Message.Rows _ -> "rows"
  | Message.Version_mismatch _ -> "version_mismatch"
  | Message.Cross_range -> "cross_range"
  | Message.Unavailable -> "unavailable"
  | Message.Not_leader _ -> "not_leader"
  | Message.Wrong_range _ -> "wrong_range"
  | Message.Fenced _ -> "fenced"
  | Message.Snap_blocked _ -> "snap_blocked"
  | Message.Txn_conflict -> "txn_conflict"
  | Message.Txn_decided _ -> "txn_decided"
  | Message.Stale_request -> "stale_request"

(* Close the request's [client.request] span with its final outcome, then
   offer the completed request to the flight recorder — the note must come
   after the span close so a pinned outlier's capture includes it. *)
let settle t p outcome =
  (match t.trace with
  | Some trace when p.span <> 0 ->
    Sim.Trace.span_end trace ~span:p.span ~trace_id:p.trace_id ~node:t.id ~tag:"client.request"
      outcome
  | _ -> ());
  match t.flight with
  | Some f -> Sim.Trace.Flight.note f ~trace_id:p.trace_id ~started:p.started
  | None -> ()

let note_retry t request_id p =
  match t.trace with
  | Some trace when Sim.Trace.is_enabled trace ->
    Sim.Trace.event trace ~trace_id:p.trace_id ~node:t.id ~tag:"client.retry"
      (Printf.sprintf "c%d#%d attempt %d" t.id request_id p.attempts)
  | _ -> ()

let rec pending_insert t rid p =
  let cap = Array.length t.pending_rid in
  let i = rid land (cap - 1) in
  if t.pending_rid.(i) < 0 || t.pending_rid.(i) = rid then begin
    t.pending_rid.(i) <- rid;
    t.pending_slot.(i) <- Some p
  end
  else begin
    (* Collision with a different live request: double until every live id
       owns its slot again. *)
    let old_rid = t.pending_rid and old_slot = t.pending_slot in
    t.pending_rid <- Array.make (2 * cap) (-1);
    t.pending_slot <- Array.make (2 * cap) None;
    Array.iteri
      (fun j r ->
        if r >= 0 then
          match old_slot.(j) with Some q -> pending_insert t r q | None -> ())
      old_rid;
    pending_insert t rid p
  end

let pending_find t rid =
  let i = rid land (Array.length t.pending_rid - 1) in
  if t.pending_rid.(i) = rid then t.pending_slot.(i) else None

let pending_mem t rid = t.pending_rid.(rid land (Array.length t.pending_rid - 1)) = rid

(* Raise the floor past settled ids. Ids leave the pending table and never
   return, so the floor only rises and each id is stepped over once. *)
let advance_floor t =
  while t.floor < t.next_request && not (pending_mem t t.floor) do
    t.floor <- t.floor + 1
  done

let pending_remove t rid =
  let i = rid land (Array.length t.pending_rid - 1) in
  if t.pending_rid.(i) = rid then begin
    t.pending_rid.(i) <- -1;
    t.pending_slot.(i) <- None
  end

let leader_set t range leader =
  if range >= Array.length t.leaders then begin
    let cap = ref (2 * Array.length t.leaders) in
    while range >= !cap do
      cap := 2 * !cap
    done;
    let a = Array.make !cap (-1) in
    Array.blit t.leaders 0 a 0 (Array.length t.leaders);
    t.leaders <- a
  end;
  t.leaders.(range) <- leader

let leader_clear t range = if range < Array.length t.leaders then t.leaders.(range) <- -1

let leader_hint t range =
  if range < Array.length t.leaders then t.leaders.(range) else -1

(* Remember the highest commit LSN acked for a write to [range]; later
   timeline reads against that range carry it as their read-your-writes
   fence. *)
let token_note t range lsn =
  if range >= Array.length t.tokens then begin
    let cap = ref (2 * Array.length t.tokens) in
    while range >= !cap do
      cap := 2 * !cap
    done;
    let a = Array.make !cap Storage.Lsn.zero in
    Array.blit t.tokens 0 a 0 (Array.length t.tokens);
    t.tokens <- a
  end;
  if Storage.Lsn.(lsn > t.tokens.(range)) then t.tokens.(range) <- lsn

let read_token t ~consistent key =
  if consistent then Storage.Lsn.zero
  else begin
    let range = Partition.route t.partition key in
    if range < Array.length t.tokens then t.tokens.(range) else Storage.Lsn.zero
  end

(* First retry delay, in µs; it doubles per attempt (jittered). *)
let backoff_base_us = 2_000

(* Retry delay cap, in µs. *)
let backoff_max_us = 400_000

(* Attempts before a request reports [Unavailable]. *)
let max_attempts = 60

(* Capped exponential backoff with equal jitter: attempt [n] waits
   [min(cap, base * 2^(n-1))], half of it fixed and half uniformly random,
   so retry storms from many clients decorrelate instead of hammering a
   recovering leader in lockstep. *)
let backoff t attempts =
  let exp = Stdlib.min 30 (Stdlib.max 0 (attempts - 1)) in
  let d = Stdlib.min backoff_max_us (backoff_base_us * (1 lsl exp)) in
  let half = Stdlib.max 1 (d / 2) in
  Sim.Sim_time.us (half + Sim.Rng.int t.rng half)

let target_for t ~strong op =
  let range = Partition.route t.partition (Message.key_of_op op) in
  if strong then begin
    let leader = leader_hint t range in
    if leader >= 0 then leader else Partition.primary t.partition ~range
  end
  else begin
    (* Timeline reads rotate over the cohort's replicas. *)
    let members = Partition.cohort t.partition ~range in
    t.rr <- t.rr + 1;
    List.nth members (t.rr mod List.length members)
  end

let strong_route op =
  match op with
  | Message.Get { consistent; _ }
  | Message.Multi_get { consistent; _ }
  | Message.Scan { consistent; _ } ->
    consistent
  (* Snapshot reads ride the timeline path: any replica may serve one once
     its applied prefix covers the fence. *)
  | Message.Snap_get _ -> false
  | _ -> true

let rec dispatch t request_id p =
  let dst = target_for t ~strong:(strong_route p.op || p.to_leader) p.op in
  advance_floor t;
  let msg = Message.Request { client = t.id; request_id; floor = t.floor; op = p.op } in
  Sim.Network.send t.net ~src:t.id ~dst ~size:(Message.size msg) ~trace_id:p.trace_id msg;
  let deadline = Sim.Sim_time.add (Sim.Engine.now t.engine) t.config.Config.client_timeout in
  p.deadline <- deadline;
  Queue.push (request_id, deadline) t.timeouts;
  arm_timeout t

(* Arm the shared timer at the earliest live deadline (shedding stale queue
   heads on the way). The timer may fire at a deadline whose request already
   completed — it then finds only stale heads and re-arms — but a live
   deadline always has a timer at or before it, so timeouts never fire late. *)
and arm_timeout t =
  if not t.timeout_armed then begin
    let rec next_live () =
      match Queue.peek_opt t.timeouts with
      | None -> None
      | Some (rid, d) -> (
        match pending_find t rid with
        | Some p when Sim.Sim_time.compare p.deadline d = 0 -> Some d
        | _ ->
          ignore (Queue.pop t.timeouts);
          next_live ())
    in
    match next_live () with
    | None -> ()
    | Some d ->
      t.timeout_armed <- true;
      ignore (Sim.Engine.schedule_at t.engine d (fun () -> sweep_timeouts t))
  end

and sweep_timeouts t =
  t.timeout_armed <- false;
  let now = Sim.Engine.now t.engine in
  let rec loop () =
    match Queue.peek_opt t.timeouts with
    | Some (rid, d) when Sim.Sim_time.(d <= now) ->
      ignore (Queue.pop t.timeouts);
      (match pending_find t rid with
      | Some p when Sim.Sim_time.compare p.deadline d = 0 -> on_timeout t rid p
      | _ -> ());
      loop ()
    | _ -> arm_timeout t
  in
  loop ()

and retry t request_id p ~after =
  p.attempts <- p.attempts + 1;
  t.retries <- t.retries + 1;
  if p.attempts >= max_attempts then begin
    pending_remove t request_id;
    settle t p "unavailable (retries exhausted)";
    p.deliver Message.Unavailable
  end
  else begin
    note_retry t request_id p;
    ignore (Sim.Engine.schedule t.engine ~after (fun () -> dispatch t request_id p))
  end

and on_timeout t request_id p =
  if pending_mem t request_id then begin
    let range = Partition.route t.partition (Message.key_of_op p.op) in
    leader_clear t range;
    (* Every other timed-out attempt, ask the coordination service where the
       leader is instead of guessing. *)
    if p.attempts mod 2 = 1 then
      t.lookup_leader ~range (fun leader ->
          match leader with
          | Some l -> leader_set t range l
          | None -> ());
    retry t request_id p ~after:(backoff t (p.attempts + 1))
  end

let handle_reply t request_id reply =
  match pending_find t request_id with
  | None -> ()
  | Some p -> (
    (* Invalidate the outstanding attempt's deadline: its queue entry goes
       stale and the sweep will skip it. *)
    p.deadline <- Sim.Sim_time.zero;
    match reply with
    | Message.Not_leader { hint } ->
      let range = Partition.route t.partition (Message.key_of_op p.op) in
      (* For a timeline read this is a lagging follower's redirect (the token
         fence hit its staleness bound): the retry must go to the leader, the
         one replica guaranteed to have applied our writes. *)
      p.to_leader <- true;
      (match hint with
      | Some l ->
        (* An actionable redirect: chase it immediately. *)
        leader_set t range l;
        retry t request_id p ~after:(Sim.Sim_time.us 100)
      | None ->
        (* No leader known (election in progress): back off. *)
        leader_clear t range;
        retry t request_id p ~after:(backoff t (p.attempts + 1)))
    | Message.Wrong_range { hint } ->
      (* Our cached routing table is stale — a split or migration committed
         since we last looked (§10). Refresh from the published layout
         (versioned, so an older publication cannot regress the cache),
         re-route the key, seed the leader cache with the server's hint, and
         retry. Arbitrarily stale clients converge: each redirect either
         advances the cached layout version or lands on the owning range. *)
      t.fetch_layout (fun data ->
          (match data with
          | Some s -> ignore (Partition.update_from_string t.partition s)
          | None -> ());
          let range = Partition.route t.partition (Message.key_of_op p.op) in
          (match hint with
          | Some l -> leader_set t range l
          | None -> leader_clear t range);
          retry t request_id p ~after:(Sim.Sim_time.us 500))
    | Message.Unavailable ->
      (* Cohort closed (takeover in progress): back off and retry. *)
      retry t request_id p ~after:(backoff t (p.attempts + 1))
    | _ ->
      pending_remove t request_id;
      (match reply with
      | Message.Written { lsn } ->
        token_note t (Partition.route t.partition (Message.key_of_op p.op)) lsn
      | _ -> ());
      settle t p (reply_name reply);
      p.deliver reply)

let create ~engine ~net ~partition ~config ~id ?trace ?flight ~lookup_leader
    ?(fetch_layout = fun k -> k None) () =
  let t =
    {
      id;
      engine;
      net;
      partition;
      config;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      lookup_leader;
      fetch_layout;
      trace;
      flight;
      pending_rid = Array.make 64 (-1);
      pending_slot = Array.make 64 None;
      leaders = Array.make 16 (-1);
      tokens = Array.make 16 Storage.Lsn.zero;
      timeouts = Queue.create ();
      timeout_armed = false;
      next_request = 0;
      floor = 0;
      rr = 0;
      retries = 0;
    }
  in
  Sim.Network.register net ~node:id (fun env ->
      match env.Sim.Network.payload with
      | Message.Reply { request_id; reply } -> handle_reply t request_id reply
      | _ -> ());
  t

let submit t op deliver =
  let request_id = t.next_request in
  t.next_request <- request_id + 1;
  let trace_id = Sim.Trace.request_trace_id ~client:t.id ~request_id in
  let span =
    match t.trace with
    | Some trace when Sim.Trace.is_enabled trace ->
      Sim.Trace.span_start trace ~trace_id ~node:t.id ~tag:"client.request"
        (Printf.sprintf "c%d#%d %s" t.id request_id (op_name op))
    | _ -> 0
  in
  let p =
    {
      op;
      deliver;
      attempts = 0;
      deadline = Sim.Sim_time.zero;
      trace_id;
      span;
      started = Sim.Engine.now t.engine;
      to_leader = false;
    }
  in
  pending_insert t request_id p;
  dispatch t request_id p

let value_result (v : Message.value_reply) = { value = v.Message.value; version = v.Message.version }

let read_k k = function
  | Message.Value v -> k (Ok (value_result v))
  | Message.Version_mismatch { current } -> k (Error (Version_mismatch { current }))
  | Message.Cross_range -> k (Error Cross_range)
  | Message.Unavailable -> k (Error Timed_out)
  | _ -> k (Error Timed_out)

let multi_read_k k = function
  | Message.Values vs -> k (Ok (List.map (fun (c, v) -> (c, value_result v)) vs))
  | Message.Version_mismatch { current } -> k (Error (Version_mismatch { current }))
  | Message.Cross_range -> k (Error Cross_range)
  | _ -> k (Error Timed_out)

let write_k k = function
  | Message.Written _ -> k (Ok ())
  | Message.Version_mismatch { current } -> k (Error (Version_mismatch { current }))
  | Message.Cross_range -> k (Error Cross_range)
  | Message.Unavailable -> k (Error Timed_out)
  | _ -> k (Error Timed_out)

let get t ?(consistent = true) key col k =
  let token = read_token t ~consistent key in
  submit t (Message.Get { key; col; consistent; token }) (read_k k)

let multi_get t ?(consistent = true) key cols k =
  let token = read_token t ~consistent key in
  submit t (Message.Multi_get { key; cols; consistent; token }) (multi_read_k k)

let write t cells k = submit t (Message.Write { cells }) (write_k k)
let put t key col ~value k = write t [ (key, col, Some value, None) ] k
let delete t key col k = write t [ (key, col, None, None) ] k

let multi_put t key cols k =
  write t (List.map (fun (col, value) -> (key, col, Some value, None)) cols) k

let conditional_put t key col ~value ~expected k =
  write t [ (key, col, Some value, Some expected) ] k

let conditional_delete t key col ~expected k = write t [ (key, col, None, Some expected) ] k

let multi_conditional_put t key cols k =
  write t (List.map (fun (col, value, expected) -> (key, col, Some value, Some expected)) cols) k

let transact_put t rows k =
  write t (List.map (fun (key, col, value) -> (key, col, Some value, None)) rows) k

(* --- multi-range transactions (MVCC snapshots + 2PC over Paxos) --- *)

type snap_read = Snap_value of read_result | Snap_intent of string

let fence_k k = function
  | Message.Fenced { lsn; ts } -> k (Ok (lsn, ts))
  | Message.Cross_range -> k (Error Cross_range)
  | _ -> k (Error Timed_out)

let snap_k k = function
  | Message.Value v -> k (Ok (Snap_value (value_result v)))
  | Message.Snap_blocked { txn } -> k (Ok (Snap_intent txn))
  | Message.Cross_range -> k (Error Cross_range)
  | _ -> k (Error Timed_out)

let prepare_k k = function
  | Message.Written _ -> k (Ok ())
  | Message.Txn_conflict -> k (Error Conflict)
  | Message.Version_mismatch { current } -> k (Error (Version_mismatch { current }))
  | Message.Cross_range -> k (Error Cross_range)
  | _ -> k (Error Timed_out)

let decided_k k = function
  | Message.Txn_decided { committed; ts } -> k (Ok (committed, ts))
  | Message.Cross_range -> k (Error Cross_range)
  | _ -> k (Error Timed_out)

let fence t key k = submit t (Message.Fence { key }) (fence_k k)

let snap_get t key col ~fence ~fence_ts k =
  submit t (Message.Snap_get { key; col; fence; fence_ts }) (snap_k k)

let txn_prepare t ~txn ~anchor ~fence ~fence_ts writes k =
  submit t (Message.Txn_prepare_req { txn; anchor; fence; fence_ts; writes }) (prepare_k k)

let txn_decide t ~txn ~anchor ~commit k =
  submit t (Message.Txn_decide_req { txn; anchor; commit }) (decided_k k)

let txn_status t ~txn ~anchor k = txn_decide t ~txn ~anchor ~commit:false k

let txn_resolve t ~txn ~key ~commit ~ts k =
  submit t (Message.Txn_resolve_req { txn; key; commit; ts }) (write_k k)

(* Scatter-gather scan: walk the key ranges covering [start_key, end_key)
   left to right, asking each cohort for its slice, until the limit fills or
   the window ends. Each per-range request retries/fails over independently
   through the normal dispatch machinery. *)
let scan t ?(consistent = true) ~start_key ~end_key ?(limit = 1000) k =
  let rows = ref [] in
  let count = ref 0 in
  let rec step current =
    if String.compare current end_key >= 0 || !count >= limit then
      k (Ok (List.rev !rows))
    else begin
      let op =
        Message.Scan
          {
            start_key = current;
            end_key;
            limit = limit - !count;
            consistent;
            token = read_token t ~consistent current;
          }
      in
      submit t op (function
        | Message.Rows { rows = rs; next } ->
          List.iter
            (fun (key, cols) ->
              rows := (key, List.map (fun (c, v) -> (c, value_result v)) cols) :: !rows;
              incr count)
            rs;
          (* Resume where the serving range's coverage stopped — the server
             reports it, so a stale routing table cannot make us skip keys a
             concurrent split moved to another cohort. *)
          (match next with
          | Some cont when String.compare cont current > 0 -> step cont
          | _ -> k (Ok (List.rev !rows)))
        | Message.Version_mismatch { current } -> k (Error (Version_mismatch { current }))
        | Message.Cross_range -> k (Error Cross_range)
        | _ -> k (Error Timed_out))
    end
  in
  step start_key

let pp_error ppf = function
  | Version_mismatch { current } -> Format.fprintf ppf "version mismatch (current=%d)" current
  | Timed_out -> Format.pp_print_string ppf "timed out"
  | Cross_range -> Format.pp_print_string ppf "transaction keys span key ranges"
  | Conflict -> Format.pp_print_string ppf "write-write conflict (first committer wins)"
