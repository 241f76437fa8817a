(** Spinnaker client library: the transactional get-put API of §3.

    Each call is a single-operation transaction executed through the cohort
    leader (writes and strong reads) or any replica (timeline reads). The
    client caches leader locations per range, follows [Not_leader] hints,
    falls back to a coordination-service lookup, and retries through
    failovers with a timeout — which is how availability windows (Table 1)
    are observed from outside.

    All calls are asynchronous: the callback fires when a reply arrives or
    retries are exhausted. *)

type t

type read_result = { value : string option; version : int }

type error =
  | Version_mismatch of { current : int }
      (** conditional operation lost the optimistic-concurrency race *)
  | Timed_out  (** retries exhausted (cohort unavailable) *)
  | Cross_range  (** transaction keys span key ranges (§8.2 extension) *)
  | Conflict
      (** a 2PC prepare lost the first-committer-wins race: a foreign intent
          or a version newer than the transaction's snapshot *)

val create :
  engine:Sim.Engine.t ->
  net:Message.t Sim.Network.t ->
  partition:Partition.t ->
  config:Config.t ->
  id:int ->
  ?trace:Sim.Trace.t ->
  ?flight:Sim.Trace.Flight.t ->
  lookup_leader:(range:int -> (int option -> unit) -> unit) ->
  ?fetch_layout:((string option -> unit) -> unit) ->
  unit ->
  t
(** [trace] enables causal request spans: each submitted operation opens a
    [client.request] span (trace id derived from [(id, request_id)] via
    {!Sim.Trace.request_trace_id}) closed with the final outcome, with
    [client.retry] instants per retransmission. Every request additionally
    tags its network messages so {!Sim.Network} stamps [net.transit] spans
    into the same trace.

    [flight] attaches the outlier flight recorder: every completed request
    is reported to it, and the window's top-K slowest keep their trace
    events pinned past ring-buffer eviction.

    [partition] should be the client's own copy of the routing table
    ({!Partition.copy}); [fetch_layout] reads the serialized layout published
    on the coordination service's [/layout] znode, and is invoked whenever a
    server answers [Wrong_range] — i.e. the cached copy went stale because a
    range split or replica migration committed (§10). Defaults to a no-op
    (static-layout deployments). *)

val id : t -> int

val get :
  t -> ?consistent:bool -> Storage.Row.key -> Storage.Row.column ->
  ((read_result, error) result -> unit) -> unit
(** [consistent] defaults to [true] (strong read, routed to the leader);
    [false] selects timeline consistency (any replica, possibly stale). *)

val multi_get :
  t -> ?consistent:bool -> Storage.Row.key -> Storage.Row.column list ->
  (((Storage.Row.column * read_result) list, error) result -> unit) -> unit

val put :
  t -> Storage.Row.key -> Storage.Row.column -> value:string ->
  ((unit, error) result -> unit) -> unit

val multi_put :
  t -> Storage.Row.key -> (Storage.Row.column * string) list ->
  ((unit, error) result -> unit) -> unit
(** Several columns of one row, written atomically: like every write call
    here, one log record at one LSN. *)

val delete :
  t -> Storage.Row.key -> Storage.Row.column -> ((unit, error) result -> unit) -> unit

val conditional_put :
  t -> Storage.Row.key -> Storage.Row.column -> value:string -> expected:int ->
  ((unit, error) result -> unit) -> unit
(** Succeeds only if the column's current version equals [expected] (§3). *)

val conditional_delete :
  t -> Storage.Row.key -> Storage.Row.column -> expected:int ->
  ((unit, error) result -> unit) -> unit

val multi_conditional_put :
  t -> Storage.Row.key -> (Storage.Row.column * string * int) list ->
  ((unit, error) result -> unit) -> unit

val transact_put :
  t -> (Storage.Row.key * Storage.Row.column * string) list ->
  ((unit, error) result -> unit) -> unit
(** Multi-operation transaction (§8.2): writes several rows atomically.
    All keys must belong to one key range (they are replicated as a single
    log record by that range's cohort); otherwise fails with [Cross_range].
    Atomicity holds across crashes: after any failure sequence either every
    row of the transaction is visible or none is. *)

val scan :
  t ->
  ?consistent:bool ->
  start_key:Storage.Row.key ->
  end_key:Storage.Row.key ->
  ?limit:int ->
  (((Storage.Row.key * (Storage.Row.column * read_result) list) list, error) result -> unit) ->
  unit
(** Range scan over [start_key, end_key) (exclusive end), ascending, at most
    [limit] rows (default 1000). Spans key ranges transparently: the client
    walks the cohorts covering the window left to right — the locality that
    key-range partitioning (§4) exists to provide. [consistent] selects
    strong (leaders) or timeline (any replica) reads per cohort. *)

(** {2 Multi-range transaction primitives (MVCC snapshots + 2PC over Paxos)}

    The building blocks {!Txn} composes into serializable multi-key
    transactions; exposed individually for recovery tooling and tests. *)

type snap_read =
  | Snap_value of read_result  (** the version visible at the fence *)
  | Snap_intent of string
      (** an unresolved write intent of this transaction sits at or below the
          fence; retry after it resolves *)

val fence :
  t -> Storage.Row.key -> ((Storage.Lsn.t * int, error) result -> unit) -> unit
(** Capture the snapshot anchor of [key]'s range: its applied commit LSN and
    the capture instant (µs), read strongly at the leader. *)

val snap_get :
  t -> Storage.Row.key -> Storage.Row.column -> fence:Storage.Lsn.t -> fence_ts:int ->
  ((snap_read, error) result -> unit) -> unit
(** MVCC read of the newest version visible under a snapshot anchored at the
    range's [fence] and the snapshot's global [fence_ts]. Served by any
    replica whose applied prefix covers the fence (token-parked otherwise). *)

val txn_prepare :
  t -> txn:string -> anchor:Storage.Row.key -> fence:Storage.Lsn.t -> fence_ts:int ->
  (Storage.Row.key * Storage.Row.column * string option) list ->
  ((unit, error) result -> unit) -> unit
(** 2PC phase one at the range owning the writes' keys: replicate write
    intents after first-committer-wins conflict checks ([Error Conflict] on
    loss). All keys must fall in one range ([Error Cross_range] otherwise). *)

val txn_decide :
  t -> txn:string -> anchor:Storage.Row.key -> commit:bool ->
  ((bool * int, error) result -> unit) -> unit
(** Replicate the commit/abort decision through the coordinator cohort (the
    owner of [anchor]). First decision wins: the result is the outcome
    actually recorded and its commit timestamp. *)

val txn_status :
  t -> txn:string -> anchor:Storage.Row.key -> ((bool * int, error) result -> unit) -> unit
(** Presumed-abort recovery: [txn_decide ~commit:false]. First decision
    wins, so this answers the transaction's recorded outcome; if none is on
    record the coordinator logs an abort and answers with it. *)

val txn_resolve :
  t -> txn:string -> key:Storage.Row.key -> commit:bool -> ts:int ->
  ((unit, error) result -> unit) -> unit
(** 2PC phase two at [key]'s range: install final cells (commit) or discard
    intents (abort) for every intent the transaction holds there.
    Idempotent. *)

val retries : t -> int
(** Total retransmissions performed (failovers, stale leader caches). *)

val pp_error : Format.formatter -> error -> unit
