module Lsn = Storage.Lsn
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module Row = Storage.Row
module Skipped_lsns = Storage.Skipped_lsns

type role = Offline | Candidate | Leader | Follower

(* What every replica of the cluster shares: the read-serve counters, the
   write-phase histograms and the leased-vs-unleased switch. The cluster
   builds one record, so a crash or a retired replica leaves its counts in
   place and a replica hosted later reads the current switch. *)
type read_stats = {
  mutable leased : int;
  mutable guarded : int;
  mutable lease_rejects : int;
  mutable guard_fails : int;
  mutable leader_timeline : int;
  mutable follower_timeline : int;
  mutable token_waits : int;
  mutable token_redirects : int;
}

type shared = {
  reads : read_stats;
  phases : Sim.Metrics.Write_phases.t;
  mutable lease_disabled : bool;
  mutable largest_bulk : int;
}

let shared () =
  {
    reads =
      { leased = 0; guarded = 0; lease_rejects = 0; guard_fails = 0; leader_timeline = 0;
        follower_timeline = 0; token_waits = 0; token_redirects = 0 };
    phases = Sim.Metrics.Write_phases.create ();
    lease_disabled = false;
    largest_bulk = 0;
  }

type ctx = {
  engine : Sim.Engine.t;
  node_id : int;
  range : int;
  config : Config.t;
  store : Storage.Store.t;
  wal : Storage.Wal.t;
  cpu : Sim.Resource.t;
  trace : Sim.Trace.t;
  send : ?trace_id:int -> dst:int -> Message.t -> unit;
      (** [trace_id] tags the message's network-transit span so the causal
          analyzer can stitch the hop into the owning request's DAG *)
  reply : client:int -> request_id:int -> Message.client_reply -> unit;
  zk : unit -> Coord.Zk_client.t;
  incarnation : unit -> int;
  routes_here : Storage.Row.key -> bool;
      (** whether a key belongs to this cohort's range (transaction scoping);
          consulted again at write time — the layout may have moved *)
  range_bounds : unit -> Storage.Row.key * Storage.Row.key;
      (** current [start, end) of this cohort's key range (scan clamping);
          a function because a range split narrows it *)
  members : unit -> int list;
      (** the cohort's current membership under the live routing table *)
  apply_meta : op:Storage.Log_record.op -> leader:bool -> unit;
      (** node-level side effects of a committed metadata record (routing
          table update, child-cohort spawn, layout publication) *)
  retire_self : unit -> unit;
      (** drop this cohort from the hosting node (migration moved it away,
          or a learner's migration aborted) *)
  resolve_in_doubt : txn:Storage.Row.key -> anchor:Storage.Row.key -> key:Storage.Row.key -> unit;
      (** node-level escalation for the presumed-abort sweep: query the
          coordinator cohort owning [anchor] for [txn]'s outcome and resolve
          the in-doubt intents at [key]'s range (a no-op outside a cluster) *)
  planted_hole_ack_bug : bool;
      (** fault plant for chaos fixtures: followers ack (and advance [lst]
          over) every LSN they appended, including writes beyond a
          loss-induced hole — the exact bug the hole-aware ack fixed — so the
          shrinker tests have a reproducible lost-acked-write failure to cut
          down. Set only through {!Cluster.create}'s argument. *)
  shared : shared;  (** the cluster's one copy, handed to every replica *)
}

type waiting_write = { client : int; request_id : int; op : Message.client_op }

(* Unleased strong read awaiting its read-index quorum: the reply was built
   at arrival; it is released once a majority of followers confirm this
   leader's epoch is still current (quorum intersection with any takeover
   quorum guarantees no newer leader has committed anything yet). *)
type pending_guard = {
  g_client : int;
  g_request_id : int;
  g_serve : unit -> unit;  (** submit the prepared reply to the CPU *)
  mutable g_acks : int list;  (** distinct follower acks so far *)
  g_span : int;  (** open [read.guard] span (0 when untraced) *)
  g_trace_id : int;
}

(* Timeline read parked behind its read-your-writes token: served once the
   applied commit point reaches the token, redirected to the leader if the
   staleness bound passes first. *)
type parked_read = {
  p_client : int;
  p_request_id : int;
  p_token : Storage.Lsn.t;
  p_serve : unit -> unit;
  mutable p_done : bool;  (** served or redirected; the deadline is a no-op *)
  p_wait_span : int;  (** open [read.wait_lsn] span (0 when untraced) *)
  p_trace_id : int;
}

(* Leader-side replica-migration state (§10): one bulk catch-up round ships
   the joiner the store up to the cmt of the moment while writes go on, the
   usual blocking final round follows, then a [Cohort_change] record swaps
   the joiner in. *)
type migration = {
  joiner : int;
  remove : int option;  (** the replica the joiner replaces, if any *)
  mutable phase : [ `Bulk | `Catchup | `Change ];
}

type t = {
  ctx : ctx;
  mutable role : role;
  mutable epoch : int;  (** highest leadership epoch seen *)
  mutable cmt : Lsn.t;
  mutable lst : Lsn.t;
  queue : Commit_queue.t;
  mutable leader : int option;
  (* leader state *)
  mutable open_for_writes : bool;
  mutable active_followers : int list;
  mutable pending_final : int list;  (** followers in a blocked final catch-up round *)
  mutable takeover_pending : bool;
  mutable takeover_open_at : Lsn.t;
      (** lst captured at takeover start: the cohort may not reopen until cmt
          reaches it (the re-proposed tail of Figure 6 line 9 has committed) *)
  mutable takeover_commit_wait : bool;
      (** the takeover has its follower quorum but the re-proposed (cmt, lst]
          tail is not yet committed; [try_commit] opens the cohort once it is *)
  mutable waiting : waiting_write list;  (** writes queued while closed/blocked, newest first *)
  mutable commit_timer_armed : bool;
  replies : Reply_cache.t;
      (** each client's floor and write outcomes: a retried write is
          answered idempotently instead of being applied twice *)
  mutable migration : migration option;  (** leader-side migration in flight *)
  mutable splitting : bool;  (** a range split is being logged; writes block *)
  (* follower state *)
  mutable catching_up : bool;
  mutable learner : bool;
      (** a joining replica that is not yet a cohort member: it is caught up
          like a follower but must not vote in elections, and its acks do
          not count toward the old configuration's majority *)
  mutable last_leader_msg : Sim.Sim_time.t;
      (** last accepted leader traffic; silence beyond a few commit periods
          means our propose stream may have a hole we cannot see *)
  mutable resync_armed : bool;
  (* election state *)
  mutable election_running : bool;
  mutable own_candidate : string option;
  mutable leader_watch_armed : bool;
  (* read path *)
  mutable guard_seq : int;
  guards : (int, pending_guard) Hashtbl.t;
      (** outstanding read-index rounds, keyed by guard sequence number *)
  mutable parked_reads : parked_read list;  (** newest first *)
  txn : Txn_participant.t;  (** leader-term 2PC tables, rebuilt on open *)
  mutable txn_sweep_armed : bool;  (** presumed-abort sweep timer running *)
}

(* ------------------------------------------------------------------ *)
(* Cost model and timers shared by every run.                          *)

(* CPU cost, in µs, of a read served from the row cache. A miss costs
   {!Config.read_service_us} plus [read_probe_service_us] per SSTable probed. *)
let read_cache_hit_service_us = 40.0
let read_probe_service_us = 30.0

(* CPU cost, in µs, on leader and follower to process one read-index guard
   message (the unleased strong-read quorum round). *)
let read_guard_service_us = 20.0

(* Follower-side staleness bound for token (read-your-writes) timeline
   reads: how long a follower parks a read waiting for its applied LSN to
   reach the client's token before redirecting it to the leader. *)
let read_lsn_wait = Sim.Sim_time.ms 50

(* Leader lease length as a fraction of [Config.session_timeout]. Must be
   < 0.5: see the lease section below. *)
let lease_fraction = 0.4

(* A learner replica never promoted within this span retires itself. *)
let learner_timeout = Sim.Sim_time.sec 30

let zk_prefix t = Printf.sprintf "/ranges/%d" t.ctx.range
let zk_candidates t = zk_prefix t ^ "/candidates"
let zk_leader t = zk_prefix t ^ "/leader"
let zk_epoch t = zk_prefix t ^ "/epoch"

let create ctx =
  let queue = Commit_queue.create () in
  {
    ctx;
    role = Offline;
    epoch = 0;
    cmt = Lsn.zero;
    lst = Lsn.zero;
    queue;
    leader = None;
    open_for_writes = false;
    active_followers = [];
    pending_final = [];
    takeover_pending = false;
    takeover_open_at = Lsn.zero;
    takeover_commit_wait = false;
    waiting = [];
    commit_timer_armed = false;
    replies = Reply_cache.create ();
    migration = None;
    splitting = false;
    catching_up = false;
    learner = false;
    last_leader_msg = Sim.Sim_time.zero;
    resync_armed = false;
    election_running = false;
    own_candidate = None;
    leader_watch_armed = false;
    guard_seq = 0;
    guards = Hashtbl.create 16;
    parked_reads = [];
    txn = Txn_participant.create ~store:ctx.store ~queue;
    txn_sweep_armed = false;
  }

let role t = t.role
let reads t = t.ctx.shared.reads
let phases t = t.ctx.shared.phases
let epoch t = t.epoch
let cmt t = t.cmt
let is_open t = t.role = Leader && t.open_for_writes
let pending_writes t = Commit_queue.length t.queue
let reply_cache_size t = Reply_cache.size t.replies
let store t = t.ctx.store
let is_learner t = t.learner
let migrating t = Option.is_some t.migration

let others t = List.filter (fun m -> m <> t.ctx.node_id) (t.ctx.members ())

let role_name = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Candidate -> "candidate"
  | Offline -> "offline"

(* Cohort events are structured instants carrying node and cohort fields;
   the "r%d n%d" detail prefix is kept for log readability and for existing
   consumers that grep details. *)
let tracing t = Sim.Trace.is_enabled t.ctx.trace

let trace t tag detail =
  if tracing t then
    Sim.Trace.event t.ctx.trace ~node:t.ctx.node_id ~cohort:t.ctx.range ~tag
      (Printf.sprintf "r%d n%d %s" t.ctx.range t.ctx.node_id detail)

let span_start t ?trace_id ?lsn ~tag detail =
  if tracing t then
    Sim.Trace.span_start t.ctx.trace ?trace_id ~node:t.ctx.node_id ~cohort:t.ctx.range ?lsn
      ~tag detail
  else 0

let span_end t ~span ?trace_id ?lsn ~tag detail =
  if span <> 0 then
    Sim.Trace.span_end t.ctx.trace ~span ?trace_id ~node:t.ctx.node_id ~cohort:t.ctx.range ?lsn
      ~tag detail

(* Schedule a callback that is dropped if the node crashed/restarted since. *)
let after t span k =
  let inc = t.ctx.incarnation () in
  ignore
    (Sim.Engine.schedule t.ctx.engine ~after:span (fun () ->
         if t.ctx.incarnation () = inc && t.role <> Offline then k ()))

(* Likewise for callbacks of asynchronous operations (log forces, ZK). *)
let guard t k =
  let inc = t.ctx.incarnation () in
  fun x -> if t.ctx.incarnation () = inc && t.role <> Offline then k x

let now_us t = Sim.Sim_time.time_to_us (Sim.Engine.now t.ctx.engine)

(* A record's trace id is a pure function of its originating request; one
   without an origin is untraced (-1). *)
let origin_trace_id = function
  | Some { Log_record.client; request_id; _ } -> Sim.Trace.request_trace_id ~client ~request_id
  | None -> -1

(* Trace id for a Propose batch: the newest write in the batch that carries an
   originating (client, request id). Tagging the batch's transit span with it
   lets the causal analyzer charge the propose hop to that request; writes
   without an origin (metadata records, rebuilt tails) leave the hop
   untagged. *)
let propose_trace_id t writes =
  if tracing t then
    origin_trace_id
      (List.fold_left
         (fun acc (_, _, _, origin) -> match origin with Some _ -> origin | None -> acc)
         None writes)
  else -1

let send_propose t ~piggyback_cmt writes =
  let msg = Message.Propose { range = t.ctx.range; epoch = t.epoch; writes; piggyback_cmt } in
  let trace_id = propose_trace_id t writes in
  List.iter (fun f -> t.ctx.send ~trace_id ~dst:f msg) t.active_followers

(* Send a freshly appended record to the followers; the caller forces it
   locally in parallel (Figure 4). A Propose lost on the way is re-sent by
   the next commit tick ([send_commit_msgs]). *)
let propose t writes =
  send_propose t writes
    ~piggyback_cmt:
      (if t.ctx.config.Config.piggyback_commits && Lsn.(t.cmt > Lsn.zero) then Some t.cmt
       else None)

(* Sample one network hop into the write-phase transit histogram: messages
   carry their send instant, so arrival minus [sent_at] is the measured
   one-way wire time (propagation + serialization + queueing in the model). *)
let record_transit t ~sent_at =
  Sim.Metrics.Histogram.record_span (phases t).transit
    (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) sent_at)

(* ------------------------------------------------------------------ *)
(* Duplicate suppression: retried writes must be acked idempotently.    *)

let reply_write t ~client ~request_id outcome =
  Reply_cache.record t.replies ~client ~request_id outcome;
  t.ctx.reply ~client ~request_id (Message.reply_of_outcome outcome)

(* The settled part of the cache goes into every checkpoint (rollover drops
   the records whose origins a restart would otherwise re-learn it from)
   and every catch-up round (cells carry no origins, so this is how a
   caught-up replica learns the outcomes and floors of the writes it
   receives as cells). The flush decision sits here, not in [Store.apply]:
   every caller has cached the applied writes' outcomes first, so the
   checkpoint's reply cache covers every write at or below it. *)
let flush t = Store.flush t.ctx.store ~replies:(Reply_cache.settled t.replies)
let flush_if_due t = if Store.flush_due t.ctx.store then flush t

(* The settled outcome of a committed record: a 2PC decision answers with
   the outcome it recorded (a client retrying its decide after a coordinator
   failover must learn commit/abort, not a bare LSN); every other write acks
   [Written]. *)
let outcome_of_record (op : Log_record.op) ~lsn =
  match op with
  | Log_record.Txn_decision { commit; ts; _ } -> Log_record.Decided { commit; ts }
  | _ -> Log_record.Written lsn

(* Re-learn committed outcomes from our own durable log: the max-lst election
   rule (Figure 7) guarantees a new leader's log contains every committed
   write, so this rebuild makes the leader-side duplicate cache complete even
   across crashes and leader changes. Logically truncated LSNs never
   committed and must not be remembered as done. *)
let recache_outcomes_from_log t ~above ~upto =
  let skipped = Storage.Skipped_lsns.ascending_mem (Store.skipped t.ctx.store) ~from:above in
  Wal.iter_durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above ~upto (fun lsn op _ origin ->
      if not (skipped lsn) then Reply_cache.settle t.replies origin (outcome_of_record op ~lsn))

(* Local recovery (§6.1): rebuild the memtable from the checkpoint through
   f.cmt, and the reply cache from the checkpoint's cache plus the outcomes
   of the log tail above it. Returns the recovered (f.cmt, f.lst). *)
let recover_local t =
  let cmt, lst = Store.recover t.ctx.store in
  let cohort = t.ctx.range in
  Reply_cache.adopt t.replies (Wal.last_checkpoint_replies t.ctx.wal ~cohort);
  recache_outcomes_from_log t ~above:(Wal.last_checkpoint t.ctx.wal ~cohort) ~upto:cmt;
  (cmt, lst)

let recover_and_flush t =
  ignore (recover_local t);
  flush t

(* ------------------------------------------------------------------ *)
(* Leader lease: implicit in the leader's ZK session. The lease is granted
   by election (becoming leader requires a live session) and renewed by
   every heartbeat; it is valid while the last successful contact with the
   service is fresher than [lease_fraction] of the session timeout. The
   margin argument: [last_contact] is a lower bound on when the server last
   heard from this session, and the ZK client declares its own session dead
   only after half the timeout of silence — which is what permits a
   replacement election — so any fraction < 0.5 lapses strictly before a
   new leader can exist anywhere. *)

let leases_enabled t = not t.ctx.shared.lease_disabled

let lease_valid t =
  let config = t.ctx.config in
  let zk = t.ctx.zk () in
  Coord.Zk_client.alive zk
  &&
  let held =
    Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) (Coord.Zk_client.last_contact zk)
  in
  let lease_us =
    lease_fraction *. float_of_int (Sim.Sim_time.to_us config.Config.session_timeout)
  in
  float_of_int (Sim.Sim_time.to_us held) < lease_us

(* Re-check before a strong reply leaves: the request may have sat in the
   CPU queue (or behind a read-index round) while this replica was deposed
   or its lease lapsed. *)
let strong_serve_ok t = t.role = Leader && ((not (leases_enabled t)) || lease_valid t)

(* Open a read request's [phase.read] span (its detail is "c<client>#<id>"
   plus [kind]); returns the request's trace id and the [finish] that closes
   the span and sends the reply. *)
let read_frame t ~client ~request_id kind =
  let trace_id = if tracing t then Sim.Trace.request_trace_id ~client ~request_id else -1 in
  let read_span =
    if tracing t then
      span_start t ~trace_id ~tag:"phase.read" (Printf.sprintf "c%d#%d%s" client request_id kind)
    else 0
  in
  let finish reply =
    span_end t ~span:read_span ~trace_id ~tag:"phase.read" "replied";
    t.ctx.reply ~client ~request_id reply
  in
  (trace_id, finish)

(* Serve every parked token read whose fence the applied commit point has
   reached; called wherever cmt advances (commit, catch-up, snapshot). *)
let flush_parked_reads t =
  if t.parked_reads <> [] then begin
    let ready, still =
      List.partition (fun p -> Lsn.(p.p_token <= t.cmt)) (List.rev t.parked_reads)
    in
    t.parked_reads <- List.rev still;
    List.iter
      (fun p ->
        if not p.p_done then begin
          p.p_done <- true;
          span_end t ~span:p.p_wait_span ~trace_id:p.p_trace_id ~tag:"read.wait_lsn"
            "token reached";
          p.p_serve ()
        end)
      ready
  end

(* Abandon every outstanding read-index round (stepdown, session expiry,
   retirement): answer [Unavailable] so clients fail over immediately. *)
let fail_guards t =
  if Hashtbl.length t.guards > 0 then begin
    let pending = Hashtbl.fold (fun seq g acc -> (seq, g) :: acc) t.guards [] in
    Hashtbl.reset t.guards;
    List.iter
      (fun (_, g) ->
        (reads t).guard_fails <- (reads t).guard_fails + 1;
        span_end t ~span:g.g_span ~trace_id:g.g_trace_id ~tag:"read.guard" "abandoned";
        t.ctx.reply ~client:g.g_client ~request_id:g.g_request_id Message.Unavailable)
      (List.sort (fun (a, _) (b, _) -> compare a b) pending)
  end

(* ------------------------------------------------------------------ *)
(* Recovery steps shared by takeover, catch-up, stepdown and teardown.  *)

(* Close the cohort to writes and end any takeover in progress. *)
let close_cohort t =
  t.open_for_writes <- false;
  t.takeover_pending <- false;
  t.takeover_commit_wait <- false

(* Answer a write that will not run here, releasing its in-flight marker so
   the client's retry is not swallowed. *)
let refuse_write t ~client ~request_id reply =
  Reply_cache.release t.replies ~client ~request_id;
  t.ctx.reply ~client ~request_id reply

(* Refuse every write parked while the cohort was closed: [Unavailable]. *)
let fail_waiting t =
  let waiting = t.waiting in
  t.waiting <- [];
  List.iter
    (fun w -> refuse_write t ~client:w.client ~request_id:w.request_id Message.Unavailable)
    waiting

let abort_migration t reason =
  match t.migration with
  | None -> ()
  | Some m ->
    (* Clean abort: the membership change was never logged, so the layout is
       untouched; the stranded learner retires itself on its own timeout. *)
    trace t "migration_abort" (Printf.sprintf "joiner=n%d %s" m.joiner reason);
    t.migration <- None

(* End this replica's leadership term, whichever path ends it: stepdown,
   session expiry, retirement or a lost /leader znode. The cohort closes,
   parked writes and read-index rounds are answered [Unavailable] so their
   clients fail over at once, and what only this term's leader could finish
   dies with it: an in-flight migration or split, and the blocked final
   catch-up list. If a split or membership record was already logged, the
   next leader's takeover resolves it like any other write. A no-op on a
   replica that was not leading. *)
let end_leader_term t reason =
  close_cohort t;
  fail_guards t;
  abort_migration t reason;
  t.splitting <- false;
  t.pending_final <- [];
  fail_waiting t

(* Logical truncation (§6.1.1): durable log records that never committed are
   put on the skipped-LSN list so local recovery does not re-apply them. *)
let truncate_logically t lsns =
  if lsns <> [] then begin
    Skipped_lsns.add (Store.skipped t.ctx.store) lsns;
    trace t "logical_truncation" (String.concat "," (List.map Lsn.to_string lsns))
  end

(* Release the in-flight duplicate markers of commit-queue entries dropped
   uncommitted, so a client retry is not silently swallowed if this node is
   later elected. *)
let release_dropped t entries =
  List.iter
    (fun (e : Commit_queue.entry) ->
      match e.Commit_queue.origin with
      | Some { Log_record.client; request_id; _ } -> Reply_cache.release t.replies ~client ~request_id
      | None -> ())
    entries

let drop_queue_above t lsn = release_dropped t (Commit_queue.drop_above t.queue lsn)

(* Dead log records leave the queue (releasing their in-flight markers)
   and are truncated logically. *)
let discard t lsns =
  release_dropped t (List.filter_map (Commit_queue.remove t.queue) lsns);
  let skipped = Store.skipped t.ctx.store in
  truncate_logically t (List.filter (fun l -> not (Skipped_lsns.mem skipped l)) lsns)

module Seq_map = Map.Make (Int)

(* Above the commit point a log keeps one live record per seq (DESIGN.md):
   the newest epoch among the records not truncated logically. Maps each
   seq of the given LSN-ordered durable records to that LSN. *)
let newest_per_seq t writes =
  let skipped = Store.skipped t.ctx.store in
  List.fold_left
    (fun m (lsn, _, _, _) ->
      if Skipped_lsns.mem skipped lsn then m else Seq_map.add lsn.Lsn.seq lsn m)
    Seq_map.empty writes

(* Accepting [lsn] from the current leader settles its seq: the leader's
   log holds every committed write and it chose [lsn], so any other record
   of ours there is dead. *)
let truncate_superseded t lsn =
  discard t
    (List.filter
       (fun l -> not (Lsn.equal l lsn))
       (Wal.write_lsns_at_seq t.ctx.wal ~cohort:t.ctx.range ~above:t.cmt ~seq:lsn.Lsn.seq))

(* The commit queue's pending entries as Propose writes, for re-proposal. *)
let queued_writes t =
  List.map
    (fun (e : Commit_queue.entry) -> (e.Commit_queue.lsn, e.op, e.timestamp, e.origin))
    (Commit_queue.to_list t.queue)

(* ------------------------------------------------------------------ *)
(* Leader takeover (Figure 6).                                          *)

let start_takeover t =
  trace t "takeover_start"
    (Printf.sprintf "epoch=%d cmt=%s lst=%s" t.epoch (Lsn.to_string t.cmt)
       (Lsn.to_string t.lst));
  t.takeover_pending <- true;
  t.takeover_open_at <- t.lst;
  t.takeover_commit_wait <- false;
  t.open_for_writes <- false;
  t.active_followers <- [];
  (* Rebuild the commit queue with the unresolved writes in (l.cmt, l.lst]
     from the durable log (they may not be in memory if we just restarted).
     They are already forced locally; they commit once a follower acks.
     Only the live record at each seq above cmt's is unresolved; any
     other is dead (a catch-up's cells settled its seq, or another record
     superseded it) and, re-queued, would hold the commit point below it.
     It leaves the queue too, if an earlier term put it there. *)
  let writes = Wal.durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above:t.cmt ~upto:t.lst in
  let newest = newest_per_seq t writes in
  let live, dead =
    List.partition
      (fun (lsn, _, _, _) ->
        lsn.Lsn.seq > t.cmt.Lsn.seq
        && Option.equal Lsn.equal (Seq_map.find_opt lsn.Lsn.seq newest) (Some lsn))
      writes
  in
  List.iter
    (fun (lsn, op, timestamp, origin) ->
      if not (Commit_queue.mem t.queue lsn) then
        Commit_queue.add t.queue ~lsn ~op ~timestamp ?origin ())
    live;
  Commit_queue.mark_forced_upto t.queue t.lst;
  (* Nothing above the contiguous prefix lst was ever committed — a
     committed record up there would have out-bid us in the max-lst
     election — so records beyond it (appends stranded past a loss-induced
     hole, or a deposed epoch's tail) are dead: purge them from the queue
     and logically truncate the log records so neither re-proposal nor local
     recovery can resurrect them under the new epoch. *)
  drop_queue_above t t.lst;
  discard t
    (List.map (fun (lsn, _, _, _) -> lsn) dead
    @ Store.durable_write_lsns_in t.ctx.store ~above:t.lst
        ~upto:(Wal.last_write_lsn t.ctx.wal ~cohort:t.ctx.range));
  (* Pending entries' originating requests are in flight again: a client
     retry arriving mid-takeover must wait for the re-proposed original to
     commit, not enqueue a second copy behind it. *)
  let pending =
    List.filter_map (fun (e : Commit_queue.entry) -> e.Commit_queue.origin)
      (Commit_queue.to_list t.queue)
  in
  Reply_cache.mark_pending t.replies pending;
  (* A retry that reached us between winning the election and this rebuild
     passed the duplicate gate before the markers above existed and is
     parked in [waiting]. If its original is pending here, it is a
     duplicate: the re-proposed original answers it when it commits. *)
  t.waiting <-
    List.filter
      (fun (w : waiting_write) ->
        not
          (List.exists
             (fun (o : Log_record.origin) -> o.client = w.client && o.request_id = w.request_id)
             pending))
      t.waiting;
  (* Ask each follower for its last committed LSN (Figure 6 lines 3-4).
     Followers may be down; re-ask the silent ones until a quorum forms. *)
  let rec query () =
    if t.role = Leader && t.takeover_pending then begin
      List.iter
        (fun f ->
          if not (List.mem f t.active_followers) then
            t.ctx.send ~dst:f (Message.Takeover_query { range = t.ctx.range; epoch = t.epoch }))
        (others t);
      after t (Sim.Sim_time.ms 1000) query
    end
  in
  query ()

(* ------------------------------------------------------------------ *)
(* Leader election (Figure 7).                                          *)

let candidate_data t = Printf.sprintf "%s;%d" (Lsn.to_string t.lst) t.ctx.node_id

let parse_candidate data =
  match String.split_on_char ';' data with
  | [ lsn_s; node_s ] -> (
    match (String.split_on_char '.' lsn_s, int_of_string_opt node_s) with
    | [ e; s ], Some node -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some epoch, Some seq -> Some (Lsn.make ~epoch ~seq, node)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The candidacies in the candidates directory, one per node: its newest
   znode (names are sequential). A replica that crashed and came back within
   the session timeout still has its old session's znode there; counted as a
   second candidate, it would let the replica win a majority alone with a
   stale lst, over replicas that committed more. *)
let candidacies kids =
  List.fold_left
    (fun acc (name, data) ->
      match parse_candidate data with
      | None -> acc
      | Some (lsn, node) -> (
        match List.find_opt (fun (_, _, n) -> n = node) acc with
        | Some (newer, _, _) when String.compare newer name > 0 -> acc
        | _ -> (name, lsn, node) :: List.filter (fun (_, _, n) -> n <> node) acc))
    [] kids

let rec become_follower t ~leader ~catchup =
  t.role <- Follower;
  t.leader <- Some leader;
  t.election_running <- false;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  trace t "follower" (Printf.sprintf "leader=n%d" leader);
  watch_leader_liveness t;
  arm_resync_timer t;
  if catchup then begin
    t.catching_up <- true;
    request_catchup t
  end

(* A rejoining follower advertises f.cmt to the leader (§6.1); retried until
   the leader answers (it may itself still be coming up). *)
and request_catchup t =
  match t.leader with
  | Some leader when t.role = Follower && t.catching_up ->
    t.ctx.send ~dst:leader
      (Message.Catchup_request { range = t.ctx.range; from = t.ctx.node_id; cmt = t.cmt });
    after t (Sim.Sim_time.ms 1000) (fun () -> if t.catching_up then request_catchup t)
  | _ -> ()

(* A follower whose propose stream has a hole (a lost message) cannot make
   commit progress on its own; an explicit catch-up from the leader closes
   the gap. *)
and start_resync t =
  if t.role = Follower && not t.catching_up then begin
    t.catching_up <- true;
    request_catchup t
  end

(* Strand detection: the leader heartbeats every commit period (commit
   messages are sent even when idle), so a follower that has heard nothing
   for several periods is cut off — by loss, a one-way partition, or a
   silent leader change — and proactively re-syncs rather than serving ever
   staler timeline reads and holding a stale commit queue. *)
and arm_resync_timer t =
  if not t.resync_armed then begin
    t.resync_armed <- true;
    let period = t.ctx.config.Config.commit_period in
    let rec check () =
      if t.role = Follower || t.role = Candidate then begin
        (if t.role = Follower && (not t.catching_up) && t.leader <> None then begin
           let silent = Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) t.last_leader_msg in
           if Sim.Sim_time.span_compare silent (Sim.Sim_time.span_scale period 3.0) > 0 then begin
             trace t "resync"
               (Printf.sprintf "leader silent for %.0fms" (Sim.Sim_time.to_ms_f silent));
             start_resync t
           end
         end);
        after t period check
      end
      else t.resync_armed <- false
    in
    after t period check
  end

and watch_leader_liveness t =
  if not t.leader_watch_armed then begin
    t.leader_watch_armed <- true;
    let zk = t.ctx.zk () in
    Coord.Zk_client.watch_node zk ~path:(zk_leader t)
      (guard t (fun () ->
           t.leader_watch_armed <- false;
           Coord.Zk_client.get_data zk ~path:(zk_leader t)
             (guard t (function
               | Ok _ -> watch_leader_liveness t
               | Error _ ->
                 (* The leader's ephemeral znode vanished: its session
                    expired. Elect a new leader (§7). *)
                 t.leader <- None;
                 start_election t))))
  end

and become_leader t =
  t.election_running <- false;
  t.leader <- Some t.ctx.node_id;
  t.role <- Leader;
  t.catching_up <- false;
  trace t "leader_elected" (Printf.sprintf "lst=%s" (Lsn.to_string t.lst));
  watch_leader_liveness t;
  let zk = t.ctx.zk () in
  (* A new epoch number is stored in Zookeeper before the leader accepts any
     new writes (Appendix B), making new LSNs greater than any previously
     used in the cohort. *)
  Coord.Zk_client.incr_counter zk ~path:(zk_epoch t)
    (guard t (fun epoch ->
         if t.role = Leader then begin
           t.epoch <- Stdlib.max t.epoch epoch;
           (* Clean up the finished election's candidate znodes (the
              directory itself stays, so sequence numbers never clash with
              paths peers still remember). *)
           Coord.Zk_client.children zk ~path:(zk_candidates t) (fun result ->
               match result with
               | Ok kids ->
                 List.iter
                   (fun (name, _) ->
                     Coord.Zk_client.delete_node zk
                       ~path:(zk_candidates t ^ "/" ^ name)
                       (fun _ -> ()))
                   kids
               | Error _ -> ());
           t.own_candidate <- None;
           start_takeover t
         end))

and read_leader_then_follow ?(armed = false) t =
  let zk = t.ctx.zk () in
  Coord.Zk_client.get_data zk ~path:(zk_leader t)
    (guard t (function
      | Ok data -> (
        match int_of_string_opt data with
        | Some leader when leader = t.ctx.node_id ->
          if t.role = Leader then
            (* We already held leadership (e.g. spurious election). *)
            t.election_running <- false
          else begin
            (* The /leader znode carries our id but we do not hold the role:
               it is a stale ephemeral from our own previous session (we
               crashed and came back within the session timeout). Nobody
               else can win while it exists, and we must not claim
               leadership off a dying session — wait for the old session to
               expire (deleting the znode) and re-run the election. *)
            t.election_running <- false;
            trace t "stale_leader_znode" "own id from a previous session";
            Coord.Zk_client.watch_node zk ~path:(zk_leader t)
              (guard t (fun () -> if t.role <> Leader then start_election t))
          end
        | Some leader -> become_follower t ~leader ~catchup:true
        | None -> t.election_running <- false)
      | Error _ when armed -> () (* the armed watch fires when it is written *)
      | Error _ ->
        (* Not written yet: learn it when the winner writes it (Fig 7 l.11).
           Arm the watch, then read again: requests run in the order sent, so
           a write that lands before the watch is armed is seen by the
           second read, and one after it fires the watch. Reading only
           once, before the watch, misses the first, and this replica
           stays a candidate for good. The watch outlives a second read
           that finds the leader; a replica that follows by then ignores
           it. *)
        Coord.Zk_client.watch_node zk ~path:(zk_leader t)
          (guard t (fun () -> if t.role = Candidate then read_leader_then_follow t));
        read_leader_then_follow ~armed:true t))

and evaluate_candidates t parsed =
  (* The new leader is the candidate with the max n.lst (Figure 7 line 6).
     Ties prefer the earliest node in the cohort's chained-declustering
     order — keeping leadership balanced across the cluster (the primary
     leads its base range when logs are equal) — then znode sequence. *)
  let position node =
    let rec find i = function
      | [] -> max_int
      | m :: rest -> if m = node then i else find (i + 1) rest
    in
    find 0 (t.ctx.members ())
  in
  match parsed with
  | [] -> ()
  | (name0, lsn0, node0) :: rest ->
    let _, _, winner =
      List.fold_left
        (fun (bn, bl, bw) (name, lsn, node) ->
          let beats =
            if not (Lsn.equal lsn bl) then Lsn.(lsn > bl)
            else if position node <> position bw then position node < position bw
            else String.compare name bn < 0
          in
          if beats then (name, lsn, node) else (bn, bl, bw))
        (name0, lsn0, node0) rest
    in
    trace t "election_eval" (Printf.sprintf "winner=n%d of %d candidates" winner (List.length parsed));
    if winner = t.ctx.node_id then begin
      let zk = t.ctx.zk () in
      Coord.Zk_client.create_node zk ~path:(zk_leader t)
        ~data:(string_of_int t.ctx.node_id) ~ephemeral:true
        (guard t (function
          | Ok _ -> become_leader t
          | Error _ ->
            (* Someone else won the race to /r/leader; follow them. *)
            read_leader_then_follow t))
    end
    else read_leader_then_follow t

and announce_candidacy t =
  if t.election_running then begin
    let zk = t.ctx.zk () in
    (* Announce candidacy: a sequential ephemeral znode holding n.lst
       (Figure 7 line 4). *)
    Coord.Zk_client.create_node zk
      ~path:(zk_candidates t ^ "/c-")
      ~data:(candidate_data t) ~ephemeral:true ~sequential:true
      (guard t (function
        | Ok path ->
          trace t "candidate" path;
          t.own_candidate <- Some path;
          await_candidates t
        | Error e ->
          trace t "candidate_error" (Format.asprintf "%a" Coord.Ztree.pp_error e);
          t.election_running <- false;
          after t (Sim.Sim_time.ms 100) (fun () -> start_election t)))
  end

and await_candidates t =
  if t.election_running then begin
    let zk = t.ctx.zk () in
    (* Arm the watch before reading, so no change is missed (Fig 7 line 5). *)
    Coord.Zk_client.watch_children zk ~path:(zk_candidates t)
      (guard t (fun () -> await_candidates t));
    Coord.Zk_client.children zk ~path:(zk_candidates t)
      (guard t (fun result ->
           if t.election_running then
             match result with
             | Ok kids ->
               (* Our own candidacy can be swept away by a previous winner's
                  cleanup racing this election: re-announce rather than wait
                  on a znode that no longer exists. *)
               let own_present =
                 match t.own_candidate with
                 | Some path ->
                   List.exists (fun (name, _) -> zk_candidates t ^ "/" ^ name = path) kids
                 | None -> false
               in
               let parsed = candidacies kids in
               if not own_present then announce_candidacy t
               else if List.length parsed >= Config.majority then evaluate_candidates t parsed
             | Error _ -> ()))
  end

and start_election t =
  (* Learners and replicas no longer in the membership must not vote: a
     learner's log is a partial snapshot (its lst is not comparable under the
     max-lst rule), and a migrated-away replica claiming leadership would
     resurrect the old configuration. *)
  if
    t.role <> Offline && (not t.election_running) && (not t.learner)
    && List.mem t.ctx.node_id (t.ctx.members ())
  then begin
    t.election_running <- true;
    (* A leader gets here when its own /leader znode vanished. *)
    end_leader_term t "leader znode lost";
    t.role <- Candidate;
    t.leader <- None;
    trace t "election_start" (Printf.sprintf "lst=%s" (Lsn.to_string t.lst));
    let zk = t.ctx.zk () in
    (* Clean up our stale state from a previous round (Figure 7 line 1). *)
    match t.own_candidate with
    | Some path ->
      t.own_candidate <- None;
      Coord.Zk_client.delete_node zk ~path (guard t (fun _ -> announce_candidacy t))
    | None -> announce_candidacy t
  end

(* ------------------------------------------------------------------ *)
(* Write path, first half: the verdict on a write request at the leader —
   the one log record it appends, or its answer when it appends none.
   Transaction requests go to the 2PC participant.                       *)

let write_verdict t ~ts op : Txn_participant.verdict =
  match op with
  | Message.Write { cells } ->
    if Txn_participant.blocks_write t.txn cells then Refuse
    else if not (List.for_all (fun (key, _, _, _) -> t.ctx.routes_here key) cells) then
      Answer Log_record.Cross_range
    else begin
      (* Each cell's current version, read once. An expected version that
         moved fails the whole write (§5.1); otherwise every cell installs
         the next version, all under one record, so the write is
         replicated, committed and recovered all-or-nothing (§8.2). *)
      let versioned =
        List.map
          (fun ((key, col, _, _) as cell) ->
            (cell, Commit_queue.current_version t.queue t.ctx.store (key, col)))
          cells
      in
      let stale ((_, _, _, expected), current) =
        match expected with Some e -> e <> current | None -> false
      in
      match List.find_opt stale versioned with
      | Some (_, current) -> Answer (Log_record.Version_mismatch current)
      | None ->
        let record ((key, col, value, _), current) =
          match value with
          | Some value -> Log_record.Put { key; col; value; version = current + 1 }
          | None -> Log_record.Delete { key; col; version = current + 1 }
        in
        Append
          (match versioned with
          | [ cell ] -> record cell
          | _ -> Log_record.Batch (List.map record versioned))
    end
  | op -> Txn_participant.record t.txn ~routes_here:t.ctx.routes_here ~cmt:t.cmt ~ts op

let trace_txn t (op : Message.client_op) (verdict : Txn_participant.verdict) =
  let keys writes = String.concat "," (List.map (fun (k, _, _) -> k) writes) in
  match (op, verdict) with
  | Message.Txn_prepare_req { txn; writes; _ }, Answer Log_record.Txn_conflict ->
    trace t "txn.prepare" (Printf.sprintf "%s conflict keys=%s" txn (keys writes))
  | Message.Txn_prepare_req { txn; fence; fence_ts; writes; _ }, Append _ ->
    trace t "txn.prepare"
      (Printf.sprintf "%s ok fence=%s fts=%d keys=%s" txn (Lsn.to_string fence) fence_ts
         (keys writes))
  | _, Append (Log_record.Txn_decision { txn; commit; ts; _ }) ->
    trace t "txn.decide" (Printf.sprintf "%s commit=%b ts=%d" txn commit ts)
  | _, Append (Log_record.Txn_resolve { txn; commit; ts; writes }) ->
    trace t "txn.resolve"
      (Printf.sprintf "%s commit=%b ts=%d keys=%s" txn commit ts
         (String.concat "," (List.map (fun (k, _, _, _) -> k) writes)))
  | _ -> ()

(* Writes block during takeover, during the momentary window at the end of a
   follower catch-up (§6.1), and while a range split is being logged; they
   park in [waiting] and drain when the cohort (re)opens. *)
let writes_admitted t =
  t.role = Leader && t.open_for_writes && t.pending_final = [] && not t.splitting

(* ------------------------------------------------------------------ *)
(* Commit path (leader side of Figure 4).                               *)

let rec try_commit t =
  let committable =
    Commit_queue.pop_committable t.queue ~acks_needed:(Config.majority - 1)
  in
  List.iter
    (fun (e : Commit_queue.entry) ->
      (* Replication phase ends when the entry becomes commit-eligible; only
         the client writes this leader appended carry a replication span, so
         takeover-rebuilt and meta entries record nothing. The append instant
         is the entry's timestamp. *)
      let popped_at = Sim.Engine.now t.ctx.engine in
      let tracked =
        match e.Commit_queue.repl_span with
        | Some span ->
          let trace_id = origin_trace_id e.origin in
          Sim.Metrics.Histogram.record_span (phases t).replication
            (Sim.Sim_time.diff popped_at (Sim.Sim_time.at_us e.timestamp));
          let lsn = if tracing t then Lsn.to_string e.lsn else "" in
          span_end t ~span ~trace_id ~lsn ~tag:"phase.replication" "commit eligible";
          let apply_span = span_start t ~trace_id ~lsn ~tag:"phase.apply" "" in
          Some (trace_id, apply_span, lsn)
        | None -> None
      in
      Store.apply t.ctx.store ~lsn:e.lsn ~timestamp:e.timestamp e.op;
      t.cmt <- Lsn.max t.cmt e.lsn;
      (* Every client write answers from its origin, whether this leader
         appended it or a takeover rebuilt it from the log (its client may
         still be retrying); the outcome is remembered either way, before a
         flush's checkpoint takes the cache. *)
      let outcome = outcome_of_record e.op ~lsn:e.lsn in
      (match e.origin with
      | Some { Log_record.client; request_id; _ } ->
        Reply_cache.record t.replies ~client ~request_id outcome
      | None -> ());
      flush_if_due t;
      if Log_record.is_meta e.op then on_meta t e.op;
      (match e.origin with
      | Some { Log_record.client; request_id; _ } ->
        t.ctx.reply ~client ~request_id (Message.reply_of_outcome outcome)
      | None -> ());
      Txn_participant.applied t.txn e.op;
      match tracked with
      | Some (trace_id, apply_span, lsn) ->
        span_end t ~span:apply_span ~trace_id ~lsn ~tag:"phase.apply" "applied and replied";
        Sim.Metrics.Histogram.record_span (phases t).apply
          (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) popped_at)
      | None -> ())
    committable;
  if committable <> [] then flush_parked_reads t;
  if t.takeover_commit_wait && t.role = Leader && Lsn.(t.cmt >= t.takeover_open_at) then begin
    t.takeover_commit_wait <- false;
    trace t "takeover_commit_done" (Printf.sprintf "cmt=%s" (Lsn.to_string t.cmt));
    open_cohort t
  end

(* A committed metadata record (membership change or range split) takes
   effect: node-level side effects first (routing table, child cohorts, layout
   publication), then the cohort-local transitions. Runs on the leader inside
   [try_commit] and on followers inside [apply_commits] — always in LSN order
   relative to data records, which is what makes the swap atomic. *)
and on_meta t op =
  let leader = t.role = Leader in
  t.ctx.apply_meta ~op ~leader;
  match op with
  | Log_record.Cohort_change { add; remove } ->
    (match add with
    | Some n when n = t.ctx.node_id ->
      (* Promoted: this replica is now a full cohort member. *)
      t.learner <- false;
      trace t "learner_promoted" (Printf.sprintf "epoch=%d" t.epoch)
    | _ -> ());
    if leader then begin
      (match remove with
      | Some n ->
        t.active_followers <- List.filter (fun f -> f <> n) t.active_followers;
        t.pending_final <- List.filter (fun f -> f <> n) t.pending_final
      | None -> ());
      (match add with
      | Some n when n <> t.ctx.node_id ->
        if not (List.mem n t.active_followers) then
          t.active_followers <- n :: t.active_followers
      | _ -> ());
      trace t "migration_done"
        (Printf.sprintf "add=%s remove=%s"
           (match add with Some n -> Printf.sprintf "n%d" n | None -> "-")
           (match remove with Some n -> Printf.sprintf "n%d" n | None -> "-"));
      t.migration <- None;
      drain_waiting t
    end
  | Log_record.Split { at; new_range } ->
    if leader then begin
      trace t "split_done" (Printf.sprintf "at=%s child=r%d" at new_range);
      t.splitting <- false;
      drain_waiting t
    end
  | _ -> ()

and send_commit_msgs t =
  (* Sent even when nothing has committed yet: commit messages double as
     leader heartbeats, which followers use to notice they are stranded
     behind a lossy or partitioned link. *)
  List.iter
    (fun f ->
      t.ctx.send ~dst:f
        (Message.Commit { range = t.ctx.range; epoch = t.epoch; upto = t.cmt }))
    t.active_followers;
  (* Re-propose still-uncommitted entries: under loss a propose (or its ack)
     may have vanished, and re-proposal is deduplicated by LSN at the
     follower. The queue is empty or tiny at each tick in steady state. *)
  (match queued_writes t with
  | [] -> ()
  | writes -> send_propose t writes ~piggyback_cmt:None);
  if Lsn.(t.cmt > Lsn.zero) then
    (* The leader saves its last committed LSN with a non-forced log write,
       for its own recovery (§5). *)
    Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt)

and arm_commit_timer t =
  if not t.commit_timer_armed then begin
    t.commit_timer_armed <- true;
    let rec tick () =
      if t.role = Leader then begin
        send_commit_msgs t;
        after t t.ctx.config.Config.commit_period tick
      end
      else t.commit_timer_armed <- false
    in
    after t t.ctx.config.Config.commit_period tick
  end

and open_cohort t =
  if not t.open_for_writes then begin
    t.open_for_writes <- true;
    trace t "cohort_open" (Printf.sprintf "epoch=%d lst=%s" t.epoch (Lsn.to_string t.lst));
    (* The new term inherits the transaction state its log implies. *)
    Txn_participant.rebuild t.txn;
    arm_commit_timer t;
    arm_txn_sweep t;
    drain_waiting t
  end

(* Presumed-abort sweep (leader-only): in-doubt intents escalate to the
   node, which asks the coordinator for the outcome (logging an abort there
   if none exists) and resolves them. *)
and arm_txn_sweep t =
  if not t.txn_sweep_armed then begin
    t.txn_sweep_armed <- true;
    let rec tick () =
      if t.role = Leader && t.open_for_writes then begin
        List.iter
          (fun (txn, anchor, key) ->
            trace t "txn.indoubt" txn;
            t.ctx.resolve_in_doubt ~txn ~anchor ~key)
          (Txn_participant.in_doubt t.txn ~now:(now_us t));
        after t Txn_participant.sweep_period tick
      end
      else t.txn_sweep_armed <- false
    in
    after t Txn_participant.sweep_period tick
  end

and drain_waiting t =
  if writes_admitted t then begin
    let waiting = List.rev t.waiting in
    t.waiting <- [];
    (* Straight to [enqueue_write]: these already passed the duplicate gate
       when they first arrived and hold an [In_flight] marker. *)
    List.iter (fun w -> enqueue_write t ~client:w.client ~request_id:w.request_id w.op) waiting
  end

(* ------------------------------------------------------------------ *)
(* Write path (Figure 4): the leader appends and forces its log record,
   and in parallel appends the write to the commit queue and proposes it
   to the followers; it commits after its own force plus one ack.        *)

and handle_write t ~client ~request_id ~floor op =
  if t.role <> Leader then
    t.ctx.reply ~client ~request_id (Message.Not_leader { hint = t.leader })
  else
    match Reply_cache.admit t.replies ~client ~request_id ~floor with
    | Stale ->
      (* The client settled this id before it sent a request carrying the
         higher floor, so this is a late duplicate. Its outcome may be gone,
         and executing it again could apply the write twice. *)
      t.ctx.reply ~client ~request_id Message.Stale_request
    | Settled outcome ->
      (* A retry of a write that already settled (its reply was lost, or
         the retry raced the reply): resend the original outcome verbatim
         rather than applying the write twice. *)
      t.ctx.reply ~client ~request_id (Message.reply_of_outcome outcome)
    | Pending ->
      (* The original is still working through the pipeline; its own
         reply — or the client's next retry once this one settles —
         answers. *)
      ()
    | Admitted -> enqueue_write t ~client ~request_id op

and enqueue_write t ~client ~request_id op =
  if not (writes_admitted t) then t.waiting <- { client; request_id; op } :: t.waiting
  else begin
    let arrived = Sim.Engine.now t.ctx.engine in
    let service = Sim.Sim_time.of_us_f Config.write_service_us in
    let trace_id = Sim.Trace.request_trace_id ~client ~request_id in
    let queue_span =
      if tracing t then
        span_start t ~trace_id ~tag:"phase.queue" (Printf.sprintf "c%d#%d" client request_id)
      else 0
    in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           span_end t ~span:queue_span ~trace_id ~tag:"phase.queue" "cpu granted";
           if not (writes_admitted t) then begin
             if t.role = Leader then t.waiting <- { client; request_id; op } :: t.waiting
             else refuse_write t ~client ~request_id (Message.Not_leader { hint = t.leader })
           end
           else if not (t.ctx.routes_here (Message.key_of_op op)) then
             (* The layout moved while this write sat in the queue (a split
                committed between arrival and service): it belongs to
                another cohort now, and assigning it an LSN here would
                misfile it. The client refreshes its routing table and
                retries at the owner. *)
             refuse_write t ~client ~request_id (Message.Wrong_range { hint = None })
           else begin
             let verdict = write_verdict t ~ts:(now_us t) op in
             if tracing t then trace_txn t op verdict;
             match verdict with
             | Append op ->
               Sim.Metrics.Histogram.record_span (phases t).queue
                 (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) arrived);
               (* The origin's floor is the highest the client has reported
                  here, so replicas trim on apply. *)
               let floor = Reply_cache.floor t.replies client in
               append t ~origin:{ Log_record.client; request_id; floor } op
             | Answer outcome -> reply_write t ~client ~request_id outcome
             | Refuse -> refuse_write t ~client ~request_id Message.Unavailable
           end))
  end

(* Leader-only: give a record the next LSN, queue it and append it to the
   log, then force it locally while proposing it (Figure 4); it commits by
   the usual majority rule. A client write carries its [origin]: only then
   are its write phases sampled and its spans traced, and it is answered
   when it commits. Metadata records (membership changes and range splits,
   §10) carry none: they ride the same log as data writes, so every replica
   applies them at the same point in the LSN order. Acks are filtered by
   membership, so the majority is the OLD configuration's: a not-yet-promoted
   learner cannot help commit the record that promotes it. *)
and append t ?origin op =
  let ts = now_us t in
  let lsn = Lsn.make ~epoch:t.epoch ~seq:(t.lst.Lsn.seq + 1) in
  t.lst <- lsn;
  let record = Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp:ts ?origin op in
  let lsn_s = if tracing t then Lsn.to_string lsn else "" in
  let trace_id = origin_trace_id origin in
  let force_span, repl_span =
    match origin with
    | Some _ ->
      let force_span = span_start t ~trace_id ~lsn:lsn_s ~tag:"phase.force" "" in
      (force_span, Some (span_start t ~trace_id ~lsn:lsn_s ~tag:"phase.replication" ""))
    | None ->
      if tracing t then trace t "meta_append" (Format.asprintf "%s %a" lsn_s Log_record.pp record);
      (0, None)
  in
  Commit_queue.add t.queue ~lsn ~op ~timestamp:ts ?origin ?repl_span ();
  Wal.append t.ctx.wal record;
  Wal.force t.ctx.wal
    (guard t (fun () ->
         if origin <> None then begin
           Sim.Metrics.Histogram.record_span (phases t).force
             (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) (Sim.Sim_time.at_us ts));
           span_end t ~span:force_span ~trace_id ~lsn:lsn_s ~tag:"phase.force" "locally durable"
         end;
         Commit_queue.mark_forced_upto t.queue lsn;
         try_commit t));
  propose t [ (lsn, op, ts, origin) ]

(* ------------------------------------------------------------------ *)
(* Read path (§5): strong reads are served by the leader — locally under a
   live lease, behind a read-index quorum round when leases are off, never
   once the lease has lapsed. Timeline reads are served by any live replica;
   a read-your-writes token parks them until the replica has applied the
   client's own writes.                                                  *)

(* Shared consistency gate for point reads and scans. [submit] serves the
   request (probing storage and paying the CPU cost); [finish] answers with
   a refusal reply, closing the request's [phase.read] span either way. *)
let gate_read t ~client ~request_id ~consistent ~token ~trace_id ~finish ~submit =
  if consistent then begin
    if t.role <> Leader then finish (Message.Not_leader { hint = t.leader })
    else if not t.open_for_writes then finish Message.Unavailable
    else if leases_enabled t then begin
      let ok = lease_valid t in
      trace t "lease.check" (if ok then "ok" else "lapsed");
      if ok then begin
        (reads t).leased <- (reads t).leased + 1;
        submit ()
      end
      else begin
        (* The correctness half of the lease: a leader that cannot prove its
           session fresh may already be deposed on the far side of a
           partition, so it must refuse rather than risk a stale "strong"
           read. No hint — we genuinely do not know who leads. *)
        (reads t).lease_rejects <- (reads t).lease_rejects + 1;
        finish (Message.Not_leader { hint = None })
      end
    end
    else begin
      (* Unleased: a read-index round. The reply is built only after a
         majority of followers confirm our epoch is still current; quorum
         intersection with any takeover quorum means no replacement leader
         can have committed anything yet. *)
      let seq = t.guard_seq in
      t.guard_seq <- seq + 1;
      let gspan =
        if tracing t then
          span_start t ~trace_id ~tag:"read.guard" (Printf.sprintf "#%d" seq)
        else 0
      in
      let g =
        {
          g_client = client;
          g_request_id = request_id;
          g_serve =
            (fun () ->
              (reads t).guarded <- (reads t).guarded + 1;
              submit ());
          g_acks = [];
          g_span = gspan;
          g_trace_id = trace_id;
        }
      in
      Hashtbl.replace t.guards seq g;
      let msg = Message.Read_guard { range = t.ctx.range; epoch = t.epoch; seq } in
      List.iter (fun f -> t.ctx.send ~trace_id ~dst:f msg) t.active_followers;
      after t (Sim.Sim_time.span_scale t.ctx.config.Config.client_timeout 0.5) (fun () ->
          if Hashtbl.mem t.guards seq then begin
            Hashtbl.remove t.guards seq;
            (reads t).guard_fails <- (reads t).guard_fails + 1;
            span_end t ~span:gspan ~trace_id ~tag:"read.guard" "no quorum; timeout";
            finish Message.Unavailable
          end)
    end
  end
  else if t.role = Offline then
    (* A live node still addressed for a cohort it no longer serves must say
       so: silence would burn the client's full retry timeout. *)
    finish Message.Unavailable
  else begin
    let serve_timeline () =
      (if t.role = Leader then (reads t).leader_timeline <- (reads t).leader_timeline + 1
       else (reads t).follower_timeline <- (reads t).follower_timeline + 1);
      submit ()
    in
    if Lsn.(token > Lsn.zero) && Lsn.(t.cmt < token) then begin
      (* Read-your-writes: hold the read until our applied prefix covers the
         client's last acked write, bounded by the staleness deadline. *)
      (reads t).token_waits <- (reads t).token_waits + 1;
      let wait_span =
        if tracing t then
          span_start t ~trace_id ~lsn:(Lsn.to_string token) ~tag:"read.wait_lsn"
            (Printf.sprintf "cmt=%s token=%s" (Lsn.to_string t.cmt) (Lsn.to_string token))
        else 0
      in
      let p =
        {
          p_client = client;
          p_request_id = request_id;
          p_token = token;
          p_serve = serve_timeline;
          p_done = false;
          p_wait_span = wait_span;
          p_trace_id = trace_id;
        }
      in
      t.parked_reads <- p :: t.parked_reads;
      after t read_lsn_wait (fun () ->
          if not p.p_done then begin
            p.p_done <- true;
            t.parked_reads <- List.filter (fun q -> not (q == p)) t.parked_reads;
            (reads t).token_redirects <- (reads t).token_redirects + 1;
            span_end t ~span:wait_span ~trace_id ~tag:"read.wait_lsn"
              "staleness bound; redirecting to leader";
            finish (Message.Not_leader { hint = t.leader })
          end)
    end
    else serve_timeline ()
  end

(* Probe storage at serve time: the outcome decides the modeled CPU cost — a
   row-cache hit is a hash lookup, a miss pays the base cost plus one probe
   charge per SSTable actually binary-searched (bloom/LSN-pruned tables are
   free). The reply carries the probed values after that service time; the
   read thus linearizes at its probe instant, inside the request window
   (arrival for leased and timeline reads, quorum confirmation for guarded
   ones, token arrival for parked ones). *)
let handle_read t ~client ~request_id ~consistent ~token ~key ~cols ~single =
  let probe_cost = ref 0.0 in
  (* Probes one column; the service charge accumulates in [probe_cost] so the
     single-column path (every point read) builds no intermediate pairs. *)
  let probe_value col =
    let cell, cost = Store.get_profiled t.ctx.store (key, col) in
    let value =
      match cell with
      | Some c when not (Row.is_tombstone c) ->
        Message.{ value = c.Row.value; version = c.Row.version }
      | Some c -> Message.{ value = None; version = c.Row.version }
      | None -> Message.{ value = None; version = 0 }
    in
    (probe_cost :=
       !probe_cost
       +.
       match cost with
       | Store.Cache_hit -> read_cache_hit_service_us
       | Store.Probed probed ->
         Config.read_service_us +. (float_of_int probed *. read_probe_service_us));
    value
  in
  let trace_id, finish =
    read_frame t ~client ~request_id (if consistent then " strong" else "")
  in
  let serve_reply reply =
    guard t (fun () ->
        if consistent && not (strong_serve_ok t) then
          (* Deposed — or the lease lapsed — while the request sat in the
             CPU queue. *)
          finish (Message.Not_leader { hint = t.leader })
        else finish reply)
  in
  (* The single-column case — every point read — skips the per-column lists. *)
  let submit () =
    match cols with
    | [ col ] when single ->
      let v = probe_value col in
      Sim.Resource.submit t.ctx.cpu
        ~service:(Sim.Sim_time.of_us_f !probe_cost)
        (serve_reply (Message.Value v))
    | _ ->
      let values = List.map (fun col -> (col, probe_value col)) cols in
      Sim.Resource.submit t.ctx.cpu
        ~service:(Sim.Sim_time.of_us_f !probe_cost)
        (serve_reply (Message.Values values))
  in
  gate_read t ~client ~request_id ~consistent ~token ~trace_id ~finish ~submit

(* Range scan over this cohort's slice of the window (§3's data model is
   range-partitioned precisely so scans stay local to consecutive cohorts;
   the client stitches ranges together). Same consistency gating as reads. *)
let handle_scan t ~client ~request_id ~start_key ~end_key ~limit ~consistent ~token =
  let trace_id, finish = read_frame t ~client ~request_id " scan" in
  let serve =
    guard t (fun () ->
        if consistent && not (strong_serve_ok t) then
          finish (Message.Not_leader { hint = t.leader })
        else begin
          let range_lo, range_hi = t.ctx.range_bounds () in
          let low = if String.compare start_key range_lo > 0 then start_key else range_lo in
          let high = if String.compare end_key range_hi < 0 then end_key else range_hi in
          let rows =
            if String.compare low high >= 0 then []
            else Store.scan t.ctx.store ~low ~high ~limit
          in
          let rows =
            List.map
              (fun (key, cols) ->
                ( key,
                  List.map
                    (fun (col, (cell : Row.cell)) ->
                      (col, Message.{ value = cell.value; version = cell.version }))
                    cols ))
              rows
          in
          let next =
            if String.compare range_hi end_key < 0 then Some range_hi else None
          in
          finish (Message.Rows { rows; next })
        end)
  in
  let service = Sim.Sim_time.of_us_f Config.read_service_us in
  let submit () = Sim.Resource.submit t.ctx.cpu ~service serve in
  gate_read t ~client ~request_id ~consistent ~token ~trace_id ~finish ~submit

(* Snapshot anchor capture: a strong read of (cmt, now) under the full
   lease/guard gate, re-validated at the CPU grant — the linearization point
   of a multi-range snapshot in this range. Everything committed here before
   this instant has [lsn <= cmt]; every transaction that commits with
   [commit_ts <= ts] prepared here before this instant (its prepare committed
   before its decision was timestamped), so its intent or final cell is at or
   below the fence. *)
let handle_fence t ~client ~request_id =
  let trace_id, finish = read_frame t ~client ~request_id " fence" in
  let submit () =
    let service = Sim.Sim_time.of_us_f read_cache_hit_service_us in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           if not (strong_serve_ok t) then finish (Message.Not_leader { hint = t.leader })
           else begin
             if tracing t then
               trace t "txn.fence" (Printf.sprintf "c%d cmt=%s" client (Lsn.to_string t.cmt));
             finish (Message.Fenced { lsn = t.cmt; ts = now_us t })
           end))
  in
  gate_read t ~client ~request_id ~consistent:true ~token:Lsn.zero ~trace_id ~finish ~submit

(* MVCC snapshot read: served by any replica via the timeline gate, parked on
   the fence LSN as its read-your-writes token — once the applied prefix
   covers the fence, interval visibility against (fence, fence_ts) is
   well-defined locally. *)
let handle_snap_get t ~client ~request_id ~key ~col ~fence ~fence_ts =
  let trace_id, finish = read_frame t ~client ~request_id " snap" in
  let submit () =
    let service = Sim.Sim_time.of_us_f Config.read_service_us in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           let result = Store.snapshot_get t.ctx.store (key, col) ~fence ~fence_ts in
           if tracing t then
             trace t "txn.snap"
               (Printf.sprintf "c%d %s fence=%s fts=%d cmt=%s -> %s" client key
                  (Lsn.to_string fence) fence_ts (Lsn.to_string t.cmt)
                  (match result with
                  | Store.Snap_blocked txn -> "blocked:" ^ txn
                  | Store.Snap_cell c ->
                    Printf.sprintf "%s@%s/ts=%s"
                      (match c.Row.value with Some v -> v | None -> "<del>")
                      (Lsn.to_string c.Row.lsn)
                      (match c.Row.txn_ts with Some ts -> string_of_int ts | None -> "-")
                  | Store.Snap_none -> "none"));
           let reply =
             match result with
             | Store.Snap_blocked txn -> Message.Snap_blocked { txn }
             | Store.Snap_cell c when not (Row.is_tombstone c) ->
               Message.Value { value = c.Row.value; version = c.Row.version }
             | Store.Snap_cell c -> Message.Value { value = None; version = c.Row.version }
             | Store.Snap_none -> Message.Value { value = None; version = 0 }
           in
           finish reply))
  in
  gate_read t ~client ~request_id ~consistent:false ~token:fence ~trace_id ~finish ~submit

let handle_client t ~client ~request_id ~floor op =
  match op with
  | Message.Get { key; col; consistent; token } ->
    handle_read t ~client ~request_id ~consistent ~token ~key ~cols:[ col ] ~single:true
  | Message.Multi_get { key; cols; consistent; token } ->
    handle_read t ~client ~request_id ~consistent ~token ~key ~cols ~single:false
  | Message.Scan { start_key; end_key; limit; consistent; token } ->
    handle_scan t ~client ~request_id ~start_key ~end_key ~limit ~consistent ~token
  | Message.Fence _ -> handle_fence t ~client ~request_id
  | Message.Snap_get { key; col; fence; fence_ts } ->
    handle_snap_get t ~client ~request_id ~key ~col ~fence ~fence_ts
  | _ -> handle_write t ~client ~request_id ~floor op

(* ------------------------------------------------------------------ *)
(* Follower side of Figure 4.                                           *)

(* Leader traffic accepted: note the contact (for stranding detection) and,
   if we were mid-election, abandon it — a live leader exists. *)
let accept_leader t ~src ~epoch =
  if epoch > t.epoch then t.epoch <- epoch;
  if t.role = Candidate then begin
    t.role <- Follower;
    t.election_running <- false
  end;
  t.leader <- Some src;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  watch_leader_liveness t;
  arm_resync_timer t

(* Apply the committed prefix. The network can lose proposes, so only the
   seq-contiguous prefix of the queue may be applied; a hole means a propose
   vanished in flight and everything beyond it must wait for a re-proposal
   or an explicit catch-up. Our own durable log records inside the newly
   committed window that did not commit (discarded by a leader change and
   never re-proposed) are logically truncated so local recovery skips them
   (§6.1.1). *)
let apply_commits t ~upto =
  if Lsn.(upto > t.cmt) then begin
    let old_cmt = t.cmt in
    let entries = Commit_queue.pop_contiguous t.queue ~from:t.cmt ~upto in
    List.iter
      (fun (e : Commit_queue.entry) ->
        Store.apply t.ctx.store ~lsn:e.Commit_queue.lsn ~timestamp:e.timestamp e.op;
        t.cmt <- Lsn.max t.cmt e.lsn;
        Reply_cache.settle t.replies e.origin (outcome_of_record e.op ~lsn:e.lsn);
        flush_if_due t;
        if Log_record.is_meta e.op then on_meta t e.op)
      entries;
    (* The commit point can pass appended-but-not-yet-locally-forced entries
       (they are globally committed); lst must never trail cmt. *)
    t.lst <- Lsn.max t.lst t.cmt;
    if entries <> [] then begin
      if tracing t then
        Sim.Trace.event t.ctx.trace ~node:t.ctx.node_id ~cohort:t.ctx.range
          ~lsn:(Lsn.to_string t.cmt) ~tag:"follower.apply"
          (Printf.sprintf "r%d n%d applied %d upto %s" t.ctx.range t.ctx.node_id
             (List.length entries) (Lsn.to_string t.cmt));
      let applied = List.map (fun (e : Commit_queue.entry) -> e.Commit_queue.lsn) entries in
      let own = Store.durable_write_lsns_in t.ctx.store ~above:old_cmt ~upto:t.cmt in
      (* Both lists ascend by LSN. *)
      truncate_logically t (Lsn.diff_sorted own applied);
      Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt)
    end;
    flush_parked_reads t;
    if Lsn.(t.cmt < upto) then begin
      trace t "commit_gap"
        (Printf.sprintf "cmt=%s committed=%s" (Lsn.to_string t.cmt) (Lsn.to_string upto));
      start_resync t
    end
  end

let handle_propose t ~src ~sent_at ~epoch ~writes ~piggyback_cmt =
  if epoch >= t.epoch && t.role <> Offline && t.role <> Leader then begin
    accept_leader t ~src ~epoch;
    record_transit t ~sent_at;
    (* Writes at or below the commit point are known-committed duplicates;
       anything above it goes through the normal protocol — append, force,
       ack (Figure 4). Retransmissions (takeover re-proposals, Figure 6 line
       9, and the leader's periodic re-proposes under loss) are deduplicated
       by LSN so the log is not polluted with copies. *)
    let appended = ref [] in
    let newest_origin = ref None in
    List.iter
      (fun (lsn, op, timestamp, origin) ->
        if Lsn.(lsn > t.cmt) then begin
          if not (Commit_queue.mem t.queue lsn) then begin
            Commit_queue.add t.queue ~lsn ~op ~timestamp ?origin ();
            Wal.append t.ctx.wal (Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp ?origin op);
            appended := lsn :: !appended;
            if origin <> None then newest_origin := origin
          end
        end)
      writes;
    let force_tid = if tracing t then origin_trace_id !newest_origin else -1 in
    let force_span =
      if !appended <> [] then span_start t ~trace_id:force_tid ~tag:"follower.force" ""
      else 0
    in
    let ack () =
      span_end t ~span:force_span ~trace_id:force_tid ~tag:"follower.force" "locally durable";
      List.iter (truncate_superseded t) !appended;
      (* Mark exactly what this propose appended as forced (a concurrent
         retransmission may have back-filled an older LSN whose force is
         still in flight), then ack only the seq-contiguous forced prefix:
         with loss, later writes can sit beyond a hole, and acking past the
         hole would let the leader count durability we do not have. *)
      List.iter (fun lsn -> Commit_queue.mark_forced t.queue lsn) !appended;
      let upto =
        if t.ctx.planted_hole_ack_bug then
          (* Planted bug (see the field's comment): claim everything
             appended, holes and all. *)
          List.fold_left Lsn.max t.cmt !appended
        else
          match Commit_queue.contiguous_forced_upto t.queue ~from:t.cmt with
          | Some lsn -> lsn
          | None -> t.cmt
      in
      (* lst advances only along this same contiguous forced prefix: it is
         what we advertise in elections (Figure 7) and takeover replies, so
         it must never claim sequence numbers beyond a hole — a candidate
         missing a committed write could otherwise out-bid the replica that
         actually has it, and the write would be logically truncated away. *)
      t.lst <- Lsn.max t.lst upto;
      if Lsn.(upto > Lsn.zero) then begin
        (* Tag the ack with the newest covered write's request, read from the
           queue entry at the acked point — cumulative acks answer the whole
           forced prefix, and that entry's commit is what the ack unblocks. *)
        let trace_id =
          if tracing t then origin_trace_id (Commit_queue.origin_at t.queue upto) else -1
        in
        t.ctx.send ~trace_id ~dst:src
          (Message.Ack { range = t.ctx.range; from = t.ctx.node_id; upto })
      end
    in
    if !appended <> [] then Wal.force t.ctx.wal (guard t ack) else ack ();
    match piggyback_cmt with
    | Some upto -> apply_commits t ~upto
    | None -> ()
  end

let handle_commit t ~src ~epoch ~upto =
  if epoch >= t.epoch && t.role <> Offline && t.role <> Leader then begin
    accept_leader t ~src ~epoch;
    apply_commits t ~upto
  end

(* Follower side of a read-index round: confirm the asking leader's epoch is
   still the newest we know. The epoch is re-checked when the CPU grants the
   ack — if a takeover query bumped our epoch while the guard sat in the
   queue, acking would hand the deposed leader a quorum it no longer has. *)
let handle_guard t ~src ~epoch ~seq =
  if epoch >= t.epoch && t.role <> Offline && t.role <> Leader then begin
    accept_leader t ~src ~epoch;
    let service = Sim.Sim_time.of_us_f read_guard_service_us in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           if t.role = Follower && epoch >= t.epoch then
             t.ctx.send ~dst:src
               (Message.Read_guard_ack { range = t.ctx.range; from = t.ctx.node_id; seq })))
  end

(* Leader side: a guard completes on its [majority - 1]'th distinct member
   ack (the leader itself is the quorum's last member). Ack bookkeeping runs
   through the leader's CPU: read-index rounds are not free for the leader —
   every guarded read costs it one ack-processing slot per responding
   follower, which is exactly why the lease pays off at saturation. *)
let handle_guard_ack t ~from ~seq =
  let service = Sim.Sim_time.of_us_f read_guard_service_us in
  Sim.Resource.submit t.ctx.cpu ~service
    (guard t (fun () ->
         if t.role = Leader && List.mem from (t.ctx.members ()) then
           match Hashtbl.find_opt t.guards seq with
           | Some g when not (List.mem from g.g_acks) ->
             g.g_acks <- from :: g.g_acks;
             if List.length g.g_acks >= Config.majority - 1 then begin
               Hashtbl.remove t.guards seq;
               span_end t ~span:g.g_span ~trace_id:g.g_trace_id ~tag:"read.guard"
                 "quorum confirmed";
               g.g_serve ()
             end
           | _ -> ()))

(* ------------------------------------------------------------------ *)
(* Catch-up: leader side (§6.1 and Figure 6 lines 3-7).                 *)

(* Catch-up is served to cohort members and to the joiner of an in-flight
   migration. A replica that was migrated away could otherwise keep asking
   and, via [pending_final], block writes forever; it learns its fate from
   the published layout instead. *)
let catchup_eligible t ~follower =
  List.mem follower (t.ctx.members ())
  || (match t.migration with Some m -> m.joiner = follower | None -> false)

(* Bring [follower], whose last committed LSN is [f_cmt], up to the leader's
   last committed LSN. Writes are blocked for the duration of the (short)
   final round so the follower is fully caught up when it completes. *)
let leader_run_catchup t ~follower ~f_cmt =
  if t.role = Leader && catchup_eligible t ~follower then begin
    t.active_followers <- List.filter (fun f -> f <> follower) t.active_followers;
    if not (List.mem follower t.pending_final) then
      t.pending_final <- follower :: t.pending_final;
    let cells =
      if Lsn.(f_cmt < t.cmt) then
        Store.committed_cells_in t.ctx.store ~above:f_cmt ~upto:t.cmt
      else []
    in
    trace t "catchup_serve"
      (Printf.sprintf "to n%d cells=%d upto=%s" follower (List.length cells)
         (Lsn.to_string t.cmt));
    t.ctx.send ~dst:follower
      (Message.Catchup_data
         {
           range = t.ctx.range;
           epoch = t.epoch;
           cells;
           upto = t.cmt;
           replies = Reply_cache.settled t.replies;
         });
    (* If the follower dies mid-round its Catchup_done never arrives; unblock
       after a grace period so the cohort does not stall. *)
    after t (Sim.Sim_time.ms 2000) (fun () ->
        if List.mem follower t.pending_final then begin
          t.pending_final <- List.filter (fun f -> f <> follower) t.pending_final;
          drain_waiting t
        end)
  end

(* A follower finished catching up: activate it and close any in-flight gap
   by re-proposing the leader's still-pending writes (idempotent at the
   follower). For a takeover this re-proposal is exactly Figure 6 line 9 —
   the unresolved writes in (l.cmt, l.lst]. *)
let leader_catchup_done t ~follower ~upto =
  (* An active follower outside a final round is already caught up: an
     answer below our cmt is a late copy (of an earlier round, or of a
     migration's bulk round before its promotion), and acting on it would
     take the follower out of service and block the range's writes for
     another round. *)
  let stale =
    Lsn.(upto < t.cmt)
    && List.mem follower t.active_followers
    && not (List.mem follower t.pending_final)
  in
  if t.role = Leader && catchup_eligible t ~follower && not stale then begin
    t.pending_final <- List.filter (fun f -> f <> follower) t.pending_final;
    (* A migration's joiner holds the bulk round: stop re-sending it. *)
    (match t.migration with
    | Some m when m.joiner = follower && m.phase = `Bulk -> m.phase <- `Catchup
    | _ -> ());
    if Lsn.(upto < t.cmt) then
      (* The follower fell behind again (it crashed and came back mid-round):
         run another round. *)
      leader_run_catchup t ~follower ~f_cmt:upto
    else begin
      if not (List.mem follower t.active_followers) then
        t.active_followers <- follower :: t.active_followers;
      (* A migration's joiner is caught up: commit the membership change that
         swaps it in (and the retiring replica out). The change is replicated
         under the old configuration's majority. *)
      (match t.migration with
      | Some m when m.joiner = follower && m.phase = `Catchup ->
        m.phase <- `Change;
        trace t "migration_change" (Printf.sprintf "joiner=n%d caught up" m.joiner);
        append t (Log_record.Cohort_change { add = Some m.joiner; remove = m.remove })
      | _ -> ());
      (match queued_writes t with
      | [] -> ()
      | writes ->
        t.ctx.send ~dst:follower
          (Message.Propose
             { range = t.ctx.range; epoch = t.epoch; writes; piggyback_cmt = None }));
      (* Attributed to the follower's track: "this follower is caught up and
         active" is a statement about the follower, and the timeline analyzer
         matches it by (node = restarted replica, cohort). *)
      Sim.Trace.event t.ctx.trace ~node:follower ~cohort:t.ctx.range ~lsn:(Lsn.to_string upto)
        ~tag:"follower_active"
        (Printf.sprintf "r%d n%d upto=%s" t.ctx.range follower (Lsn.to_string upto));
      if t.takeover_pending then begin
        t.takeover_pending <- false;
        trace t "takeover_quorum" (Printf.sprintf "first=n%d" follower);
        if Lsn.(t.cmt >= t.takeover_open_at) then open_cohort t
        else begin
          (* Figure 6: the unresolved writes in (l.cmt, l.lst] were acked by
             the old leader and must be committed — and applied, so strong
             reads cannot travel back in time — before the cohort reopens.
             The commit timer re-proposes them under loss until the tail
             lands; [try_commit] opens the cohort when cmt reaches the lst
             we took over with. *)
          t.takeover_commit_wait <- true;
          trace t "takeover_commit_wait"
            (Printf.sprintf "cmt=%s open_at=%s" (Lsn.to_string t.cmt)
               (Lsn.to_string t.takeover_open_at));
          arm_commit_timer t
        end
      end;
      drain_waiting t
    end
  end

(* ------------------------------------------------------------------ *)
(* Catch-up: follower side (§6.1).                                      *)

let follower_handle_catchup_data t ~src ~epoch ~cells ~upto ~replies =
  (* A late copy of a migration's bulk round: the learner already holds it,
     and installing it again would drop the queue and lst above its
     horizon. It sends no answer either: its Catchup_done is on the way
     behind its log force, which can take seconds, and an answer landing
     after the leader moved on would start a needless blocking round. If
     that Catchup_done was lost, the resync timer asks the leader again. *)
  if t.learner && t.role = Follower && Lsn.(t.cmt >= upto) then ()
  else if epoch >= t.epoch && t.role <> Offline && t.role <> Leader then begin
    accept_leader t ~src ~epoch;
    let old_cmt = t.cmt in
    let catchup_span =
      span_start t ~lsn:(Lsn.to_string upto) ~tag:"recovery.catchup"
        (Printf.sprintf "from n%d: %d cells, %s -> %s" src (List.length cells)
           (Lsn.to_string old_cmt) (Lsn.to_string upto))
    in
    (* Logical truncation (§6.1.1): LSNs in our log after f.cmt that the
       leader does not vouch for were discarded by a leader change and must
       never be re-applied by local recovery. The leader vouches for the
       cells it sent and for its still-pending writes above [upto] (which it
       re-proposes right after this round). *)
    let vouched =
      List.fold_left (fun acc ((_, (cell : Row.cell)) : Row.coord * Row.cell) ->
          cell.lsn :: acc)
        [] cells
    in
    (* Scan our raw durable extent, not lst: with loss the log can hold
       records beyond the contiguous prefix lst tracks, and any of them
       inside the vouched window that the leader does not vouch for must be
       truncated too. *)
    let own =
      Store.durable_write_lsns_in t.ctx.store ~above:old_cmt ~upto:(Lsn.max t.lst upto)
    in
    truncate_logically t
      (List.filter
         (fun lsn -> Lsn.(lsn <= upto) && not (List.exists (Lsn.equal lsn) vouched))
         own);
    (* Entries at or below the catch-up point are superseded by the cells;
       anything above it that is still valid will be re-proposed (the leader
       re-proposes its pending queue right after this round and on every
       commit tick), so the queue is cleared outright — stale entries from a
       deposed leader must not linger and apply later. *)
    ignore (Commit_queue.pop_upto t.queue upto);
    drop_queue_above t upto;
    Store.install_cells t.ctx.store ~own cells;
    t.cmt <- Lsn.max t.cmt upto;
    (* What this copy brought us to: the answer names it, not the cmt read
       when the force lands, which later commits may have passed. *)
    let installed = t.cmt in
    (* Everything above the catch-up point was dropped from the queue, so our
       vouched contiguous prefix ends exactly at cmt; that is the honest lst
       until the leader's re-proposals rebuild the chain. Keeping a larger
       stale value would let this replica out-bid others in an election with
       sequence numbers it no longer vouches for. *)
    t.lst <- t.cmt;
    Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt);
    (* Writes we had forced but never applied are now committed (or
       truncated); re-learn their outcomes from our own log so duplicate
       retries stay suppressed if this node is later elected leader. *)
    recache_outcomes_from_log t ~above:old_cmt ~upto:t.cmt;
    Reply_cache.adopt t.replies replies;
    flush_if_due t;
    flush_parked_reads t;
    let finish =
      guard t (fun () ->
          span_end t ~span:catchup_span ~lsn:(Lsn.to_string installed) ~tag:"recovery.catchup"
            "caught-up batch durable";
          t.catching_up <- false;
          t.ctx.send ~dst:src
            (Message.Catchup_done { range = t.ctx.range; from = t.ctx.node_id; upto = installed }))
    in
    Wal.force t.ctx.wal finish
  end

(* ------------------------------------------------------------------ *)
(* Replica migration / node bootstrap (§10): the leader catches a joining
   node up like any follower — a bulk round of its store, then the final
   round — and commits a [Cohort_change] that swaps it in.              *)

(* Drop this replica from the node: waiting writers are failed, the role
   goes Offline so every guarded callback dies, and any leader-owned
   election znodes are released so the remaining members can elect. The
   node layer forgets the cohort and drops its log records. *)
let retire t =
  if t.role <> Offline then begin
    trace t "retire"
      (Printf.sprintf "role=%s%s" (role_name t.role) (if t.learner then " (learner)" else ""));
    end_leader_term t "replica retired";
    let parked = List.rev t.parked_reads in
    t.parked_reads <- [];
    List.iter
      (fun p ->
        if not p.p_done then begin
          p.p_done <- true;
          t.ctx.reply ~client:p.p_client ~request_id:p.p_request_id Message.Unavailable
        end)
      parked;
    let zk = t.ctx.zk () in
    (match t.own_candidate with
    | Some path -> Coord.Zk_client.delete_node zk ~path (fun _ -> ())
    | None -> ());
    if t.role = Leader then Coord.Zk_client.delete_node zk ~path:(zk_leader t) (fun _ -> ());
    t.role <- Offline;
    t.leader <- None;
    t.learner <- false;
    t.election_running <- false;
    t.own_candidate <- None
  end

(* Admin entry point (leader only): bootstrap [joiner] into the cohort,
   retiring [remove] once the joiner is in. Returns false if the cohort
   cannot start a migration right now. *)
let request_join t ~joiner ?remove () =
  let members = t.ctx.members () in
  let valid_remove =
    match remove with
    | None -> true
    | Some r -> r <> joiner && r <> t.ctx.node_id && List.mem r members
  in
  if
    t.role = Leader && t.open_for_writes
    && Option.is_none t.migration
    && (not t.splitting)
    && (not (List.mem joiner members))
    && valid_remove
  then begin
    (* The bulk round holds the newest committed cell per coordinate
       (tombstones included) plus the retained older MVCC versions behind
       each: without the chain tails the joiner could not answer an interval
       snapshot read whose timestamp predates a coordinate's newest version.
       Sorted by LSN, so the joiner installs in log order, one log record
       per LSN. Writes go on meanwhile; the joiner's [Catchup_done] starts
       the usual final round from this horizon. *)
    let cells =
      Store.all_cells t.ctx.store @ Store.chain_history_cells t.ctx.store
      |> List.stable_sort (fun (_, (a : Row.cell)) (_, (b : Row.cell)) ->
             Lsn.compare a.lsn b.lsn)
    in
    let bulk =
      Message.Catchup_data
        {
          range = t.ctx.range;
          epoch = t.epoch;
          cells;
          upto = t.cmt;
          replies = Reply_cache.settled t.replies;
        }
    in
    let m = { joiner; remove; phase = `Bulk } in
    t.migration <- Some m;
    let bytes = Message.size bulk in
    t.ctx.shared.largest_bulk <- max t.ctx.shared.largest_bulk bytes;
    trace t "migration_start"
      (Printf.sprintf "joiner=n%d remove=%s cells=%d bytes=%d upto=%s" joiner
         (match remove with Some r -> Printf.sprintf "n%d" r | None -> "-")
         (List.length cells) bytes (Lsn.to_string t.cmt));
    (* A lost bulk round is sent again, with its own horizon: the joiner
       must not claim a cmt for writes it never received. *)
    let rec send_bulk () =
      t.ctx.send ~dst:joiner bulk;
      after t (Sim.Sim_time.sec 1) (fun () ->
          match t.migration with
          | Some m' when m' == m && m.phase = `Bulk -> send_bulk ()
          | _ -> ())
    in
    send_bulk ();
    after t t.ctx.config.Config.migration_timeout (fun () ->
        match t.migration with
        | Some m' when m' == m && m.phase <> `Change -> abort_migration t "catch-up stalled"
        | _ -> ());
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Migration: joiner (learner) side.                                    *)

(* Become a learner replica: caught up like a follower, acking proposes
   (they do not count toward the old majority), but never voting in
   elections. A learner that is never promoted retires itself. *)
let start_learner t ~leader =
  t.role <- Follower;
  t.learner <- true;
  t.catching_up <- true;
  t.leader <- Some leader;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  trace t "learner_start" (Printf.sprintf "leader=n%d" leader);
  let inc = t.ctx.incarnation () in
  ignore
    (Sim.Engine.schedule t.ctx.engine ~after:learner_timeout (fun () ->
         if t.ctx.incarnation () = inc && t.learner && t.role <> Offline then begin
           trace t "learner_abort" "never promoted; migration aborted";
           t.ctx.retire_self ()
         end))

(* ------------------------------------------------------------------ *)
(* Range split: a hot range [lo, hi) splits at a median key into
   [lo, at) + [at, hi), both children serving before any data is
   rewritten — the child shares the parent's SSTables.                  *)

(* Admin entry point (leader only). The split point is the store's median
   key; the child range id is allocated from the coordination service; the
   child's election znodes are pre-created with the parent's current epoch
   (so the child's first leader allocates a strictly larger one and its
   writes beat every inherited cell under LSN order); then the parent
   drains its commit queue, flushes, and logs the split record. *)
let request_split t =
  if
    t.role = Leader && t.open_for_writes && Option.is_none t.migration && not t.splitting
  then begin
    match Store.split_point t.ctx.store with
    | None -> false
    | Some at ->
      t.splitting <- true;
      trace t "split_start" (Printf.sprintf "at=%s" at);
      (* The split belongs to this term. Every election raises the epoch,
         so a chain that outlives its term stops at its next step, even if
         this replica leads again and has started another split. *)
      let epoch = t.epoch in
      let aborted = ref false and draining = ref false in
      let live () = t.role = Leader && t.splitting && t.epoch = epoch && not !aborted in
      (* A coordination call made while the link is cut never calls back, so
         the chain gets the membership watchdog's deadline. Until its drain
         starts, a split that misses it is abandoned and the writes it parked
         go on; once draining, the split only ends with the term. *)
      after t t.ctx.config.Config.migration_timeout (fun () ->
          if live () && not !draining then begin
            aborted := true;
            t.splitting <- false;
            trace t "split_abort" "coordination chain timed out";
            drain_waiting t
          end);
      let zk = t.ctx.zk () in
      Coord.Zk_client.incr_counter zk ~path:"/next_range"
        (guard t (fun new_range ->
             if live () then begin
               let prefix = Printf.sprintf "/ranges/%d" new_range in
               let create path k =
                 (* Already-exists errors are fine: a previous leader's split
                    attempt may have created the znodes before dying. *)
                 Coord.Zk_client.create_node zk ~path ~data:(string_of_int epoch)
                   (guard t (fun _ -> if live () then k ()))
               in
               create prefix (fun () ->
                   create (prefix ^ "/candidates") (fun () ->
                       create (prefix ^ "/epoch") (fun () ->
                           (* New writes are parked by [t.splitting]; wait for
                              the in-flight tail to commit, then flush so the
                              shared SSTables hold everything up to the split
                              record, and log it. The split dies with the term:
                              [end_leader_term] clears the flag, and [live]
                              checks the epoch. *)
                           let rec drain () =
                             if live () then
                               if Commit_queue.length t.queue > 0 then
                                 after t (Sim.Sim_time.ms 50) drain
                               else begin
                                 flush t;
                                 append t (Log_record.Split { at; new_range })
                               end
                           in
                           draining := true;
                           drain ())))
             end));
      true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Leader takeover: follower side (Figure 6 lines 3-4).                 *)

(* Answer the new leader's query with our last committed LSN, as a catch-up
   request: the leader catches us up to its cmt like any rejoining
   follower. *)
let handle_takeover_query t ~src ~epoch =
  if t.role <> Offline && epoch >= t.epoch then begin
    (* A deposed leader rejoins the cohort as a follower (§6.2). *)
    if t.role = Leader then begin
      trace t "stepdown" (Printf.sprintf "new_epoch=%d" epoch);
      end_leader_term t "leader deposed"
    end;
    t.role <- Follower;
    t.election_running <- false;
    accept_leader t ~src ~epoch;
    t.catching_up <- true;
    t.ctx.send ~dst:src
      (Message.Catchup_request { range = t.ctx.range; from = t.ctx.node_id; cmt = t.cmt })
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                           *)

let crash t =
  t.role <- Offline;
  t.epoch <- 0;
  t.cmt <- Lsn.zero;
  t.lst <- Lsn.zero;
  ignore (Commit_queue.drop_above t.queue Lsn.zero);
  t.leader <- None;
  close_cohort t;
  t.active_followers <- [];
  t.pending_final <- [];
  t.waiting <- [];
  t.commit_timer_armed <- false;
  Reply_cache.clear t.replies;
  t.migration <- None;
  t.splitting <- false;
  t.catching_up <- false;
  t.learner <- false;
  t.last_leader_msg <- Sim.Sim_time.zero;
  t.resync_armed <- false;
  t.election_running <- false;
  t.own_candidate <- None;
  t.leader_watch_armed <- false;
  (* Outstanding guard rounds and parked reads die with the node (no replies
     leave a crashed process); their clients time out and retry elsewhere.
     [guard_seq] survives, monotone, so a stale pre-crash ack can never
     complete a fresh round. *)
  Hashtbl.reset t.guards;
  t.parked_reads <- [];
  Txn_participant.reset t.txn;
  t.txn_sweep_armed <- false;
  Store.crash t.ctx.store

let wipe_storage t = Store.wipe t.ctx.store

(* Read the current leader from Zookeeper and fall in line: follow it, or run
   an election if there is none (or the registered leader is ourselves — we
   no longer hold that role after a crash or session loss). *)
let join_cohort t =
  let zk = t.ctx.zk () in
  Coord.Zk_client.get_data zk ~path:(zk_leader t)
    (guard t (function
      | Ok data -> (
        match int_of_string_opt data with
        | Some leader when leader <> t.ctx.node_id ->
          become_follower t ~leader ~catchup:true
        | _ -> start_election t)
      | Error _ -> start_election t))

(* The honest last-LSN claim after recovery: the largest LSN reachable from
   cmt by walking consecutive sequence numbers through the durable log
   (taking the live record where a seq was written twice). The raw log tail
   can sit beyond a loss-induced hole, and advertising it in an election
   (Figure 7) could out-bid the replica actually holding a committed write. *)
let recovered_contiguous_lst t ~cmt ~raw =
  let by_seq =
    newest_per_seq t (Wal.durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above:cmt ~upto:raw)
  in
  let rec walk seq best =
    match Seq_map.find_opt (seq + 1) by_seq with
    | Some lsn -> walk (seq + 1) lsn
    | None -> best
  in
  walk cmt.Lsn.seq cmt

let rejoin t =
  (* Local recovery first (§6.1): rebuild the memtable from the checkpoint
     through f.cmt; writes after f.cmt await the catch-up phase. The reply
     cache is rebuilt with it, so a client retrying a write this replica
     committed before going down gets an idempotent ack, not a second
     application. *)
  let cmt, lst = recover_local t in
  t.cmt <- cmt;
  t.lst <- recovered_contiguous_lst t ~cmt ~raw:lst;
  t.epoch <- lst.Lsn.epoch;
  t.role <- Candidate;
  trace t "local_recovery"
    (Printf.sprintf "cmt=%s lst=%s" (Lsn.to_string cmt) (Lsn.to_string lst));
  join_cohort t

(* The coordination-service session expired (§7): a leader must stop serving
   immediately — its znode is gone, so a new leader may be elected at any
   moment — and any replica loses its watches with the session. The node
   layer re-establishes a session and calls [zk_session_renewed], which
   re-reads the leader and falls back in line. *)
let zk_session_expired t =
  if t.role <> Offline then begin
    trace t "zk_session_expired" ("role=" ^ role_name t.role);
    (* The session is gone, so the lease is too; in-flight guard rounds can
       never complete under an epoch a new leader may already have beaten. *)
    end_leader_term t "session expired";
    t.role <- if t.learner then Follower else Candidate;
    t.leader <- None;
    t.active_followers <- [];
    t.catching_up <- false;
    t.election_running <- false;
    t.own_candidate <- None;
    t.leader_watch_armed <- false;
    (* Leader-term transaction state dies with the term; the next leader
       rebuilds it from its store and queue when the cohort reopens. *)
    Txn_participant.reset t.txn
  end

let zk_session_renewed t = if t.role <> Offline && not t.learner then join_cohort t

let read_local t coord = Store.read t.ctx.store coord

let skipped_lsns t = Skipped_lsns.to_list (Store.skipped t.ctx.store)

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)

let handle_peer t ~src ~sent_at msg =
  match msg with
  | Message.Propose { epoch; writes; piggyback_cmt; _ } ->
    handle_propose t ~src ~sent_at ~epoch ~writes ~piggyback_cmt
  | Message.Ack { from; upto; _ } ->
    (* Only members' acks count toward the majority: a learner's ack must
       not help commit a write the old configuration has not accepted — the
       learner could vanish with the only durable copy. *)
    if t.role = Leader && List.mem from (t.ctx.members ()) then begin
      record_transit t ~sent_at;
      Commit_queue.add_ack t.queue ~from ~upto;
      try_commit t
    end
  | Message.Commit { epoch; upto; _ } -> handle_commit t ~src ~epoch ~upto
  | Message.Read_guard { epoch; seq; _ } -> handle_guard t ~src ~epoch ~seq
  | Message.Read_guard_ack { from; seq; _ } -> handle_guard_ack t ~from ~seq
  | Message.Takeover_query { epoch; _ } -> handle_takeover_query t ~src ~epoch
  | Message.Catchup_request { from; cmt; _ } ->
    if t.role = Leader then leader_run_catchup t ~follower:from ~f_cmt:cmt
  | Message.Catchup_data { epoch; cells; upto; replies; _ } ->
    follower_handle_catchup_data t ~src ~epoch ~cells ~upto ~replies
  | Message.Catchup_done { from; upto; _ } -> leader_catchup_done t ~follower:from ~upto
  | Message.Request _ | Message.Reply _ -> ()
