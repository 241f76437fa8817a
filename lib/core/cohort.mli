(** The per-range replica state machine — the paper's core contribution.

    One [t] lives on each node of a key range's cohort and plays one of the
    roles leader / follower / candidate. It implements:

    - the steady-state quorum phase of Spinnaker's Multi-Paxos variant
      (Figure 4): leader log force in parallel with propose messages,
      commit after one follower ack, periodic asynchronous commit messages;
    - leader election through the coordination service (Figure 7), with the
      max-last-LSN rule that guarantees no committed write is lost;
    - leader takeover (Figure 6): catch followers up to l.cmt, wait for a
      quorum, re-propose the unresolved writes in (l.cmt, l.lst], then open
      the cohort with a fresh epoch;
    - follower recovery (§6.1): catch-up from the leader's log or SSTables,
      with logical truncation of discarded records via skipped-LSN lists;
    - live membership change (§10): replica migration — snapshot ship plus
      WAL catch-up to a learner, then a Paxos-replicated [Cohort_change]
      record that atomically swaps the joiner in — and range splits via a
      logged [Split] record, both children serving off shared SSTables. *)

type role = Offline | Candidate | Leader | Follower

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
(** Read-serve counters, documented at {!Cluster.read_serve_stats}. *)

type shared = {
  reads : read_stats;
  phases : Sim.Metrics.Write_phases.t;
      (** per-phase breakdown of every write a replica led to commit *)
  mutable lease_disabled : bool;
      (** force the unleased (quorum-guard) strong-read path *)
}
(** Facts about the whole cluster that every replica updates: one record,
    built by {!Cluster.create} and handed to each replica through {!ctx}.
    A crash or a retired replica leaves it as it is. *)

val shared : unit -> shared
(** Zero counters, empty histograms, leases enabled. *)

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
  zk : unit -> Coord.Zk_client.t;  (** current session (changes on restart) *)
  incarnation : unit -> int;  (** node incarnation; timers check it *)
  routes_here : Storage.Row.key -> bool;
      (** whether a key belongs to this cohort's range (transaction scoping);
          consulted again at write time — the layout may have moved *)
  range_bounds : unit -> Storage.Row.key * Storage.Row.key;
      (** current [start, end) of this cohort's key range (scan clamping);
          a function because a range split narrows it *)
  members : unit -> int list;
      (** the cohort's current membership under the live routing table *)
  xfer : Sim.Resource.t;
      (** the node's bulk-transfer link; snapshot chunks stream through it at
          a fixed 100 MB/s, so migration bandwidth is modelled *)
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

type t

val create : ctx -> t

val role : t -> role

val epoch : t -> int

val cmt : t -> Storage.Lsn.t
(** Last committed LSN. *)

val is_open : t -> bool
(** Leader-side: accepting writes (post-takeover). *)

val pending_writes : t -> int
(** Commit-queue length. *)

val reply_cache_size : t -> int
(** Outcomes ([In_flight] markers and settled replies) held in the
    duplicate-suppression reply cache, over all clients. Each client keeps
    only outcomes at or above its completion floor, so the count is bounded
    by the clients' unsettled requests, not by how many writes ran. *)

val store : t -> Storage.Store.t
(** The replica's storage engine (gauge registration and inspection). *)

val is_learner : t -> bool
(** A joining replica not yet swapped into the membership: receives the
    snapshot and catch-up but cannot vote, and its acks do not count. *)

val migrating : t -> bool
(** Leader-side: a replica migration is in flight on this cohort. *)

(** {2 Membership change and splits (§10)} *)

val request_join : t -> joiner:int -> ?remove:int -> unit -> bool
(** Leader-only admin entry point: bootstrap node [joiner] into the cohort
    (snapshot ship, WAL catch-up, then a replicated [Cohort_change]),
    retiring member [remove] once the joiner is in. Returns [false] if this
    replica is not an open leader, a migration or split is already running,
    the joiner is already a member, or [remove] is invalid (not a member,
    the leader itself, or the joiner). The migration aborts cleanly — layout
    untouched — if the joiner stops responding. *)

val request_split : t -> bool
(** Leader-only admin entry point: split the range at the store's median key
    into parent [lo, at) and a child [at, hi) with the same membership. The
    child's id comes from the coordination service's /next_range counter and
    its election znodes are seeded with the parent's epoch before the split
    record is logged; both children serve immediately off shared SSTables.
    Returns [false] if not an open leader, busy, or the store is too small
    to yield an interior split point. *)

val start_learner : t -> leader:int -> unit
(** Called by the node layer when a snapshot chunk arrives for a range it
    does not host: turn this fresh cohort into a learner replica fed by
    [leader]. Retires itself if never promoted within 30 s. *)

val retire : t -> unit
(** The node no longer hosts this range: fail queued writers, release any
    held election znodes, and go Offline (guarded callbacks die). *)

(** {2 Lifecycle} *)

val crash : t -> unit

val wipe_storage : t -> unit
(** Disk failure: lose SSTables, log slice, and skipped-LSN list. A later
    {!rejoin} recovers entirely from the leader's catch-up (§6.1). *)

val rejoin : t -> unit
(** Boot or restart: local recovery (a no-op on an empty log), then either
    catch up with the current leader or run an election (§7: "leader
    election is triggered whenever a cohort's leader has failed or following
    local recovery after a system restart"). *)

val zk_session_expired : t -> unit
(** The node's coordination-service session expired (§7): a leader steps
    down immediately (its ephemeral leader znode is gone, so a new leader
    may be elected on the other side of the partition at any moment);
    followers and candidates drop their now-dead watches and wait for the
    node layer to re-establish a session. *)

val zk_session_renewed : t -> unit
(** A fresh coordination-service session is up: re-read the leader znode
    and fall back in line — follow the current leader, or run an election
    if there is none. *)

(** {2 Inspection} (tests and examples) *)

val read_local : t -> Storage.Row.coord -> Storage.Row.cell option
(** This replica's committed view of a coordinate (what a timeline read
    served here would return). *)

val skipped_lsns : t -> Storage.Lsn.t list
(** The replica's skipped-LSN list (§6.1.1), ascending. *)

(** {2 Event handling} (called by the node's dispatcher) *)

val handle_client :
  t -> client:int -> request_id:int -> floor:int -> Message.client_op -> unit
(** [floor] is the client's completion floor ({!Message.t.Request}). *)

val handle_peer : t -> src:int -> sent_at:Sim.Sim_time.t -> Message.t -> unit
(** [sent_at] is the envelope's send instant ({!Sim.Network.envelope}); the
    cohort samples arrival − [sent_at] into the transit phase histogram for
    Proposes (follower side) and Acks (leader side). *)
