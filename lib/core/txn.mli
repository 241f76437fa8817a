(** Multi-key serializable transactions: MVCC snapshot reads at a
    cluster-wide fence + two-phase commit over the per-range Paxos logs.

    The snapshot: every key range touched gets its anchor captured by a
    strong leader read — its applied commit LSN (the {e fence}) and the
    capture instant. The transaction's snapshot timestamp is the {e minimum}
    of the capture instants. A plain write is visible iff its LSN is at or
    below its range's fence; a transactionally installed version iff its
    commit timestamp is at or below the snapshot timestamp — the commit
    timestamp is assigned when the coordinator logs the decision, strictly
    after every participant's prepare committed, so a transaction visible
    under the snapshot has its intent or final cell below every fence it
    touches. Unresolved intents at or below a fence block the reader
    (bounded retries) — the owner may yet commit inside the snapshot.

    The commit: one prepare per distinct written key replicates write
    intents through that key range's Paxos log after first-committer-wins
    conflict checks against the snapshot; the decision record replicates
    through the {e anchor} (first written key) range's log, so coordinator
    failover cannot lose it; per-key resolve records install the final cells
    and clear the intents. Recovery is presumed abort: an in-doubt intent is
    escalated to the coordinator, which answers with the recorded decision
    or logs an abort if there is none. *)

type read = Storage.Row.key * Storage.Row.column

type read_value = Storage.Row.key * Storage.Row.column * string option * int
(** One snapshot read result: (key, column, value, version); [None] = no
    visible version (or a tombstone) at the snapshot. *)

type write = Storage.Row.key * Storage.Row.column * string option
(** A proposed write; [None] = delete. *)

type outcome =
  | Committed of { ts : int }  (** commit timestamp (µs); 0 for blind fast-path writes *)
  | Aborted of { reason : string }
      (** nothing is visible: conflict, blocked read, or decided abort *)
  | Indeterminate of { txn : string }
      (** the decision's fate is unknown (coordinator unreachable); the
          presumed-abort sweep will converge surviving intents, and
          {!Client.txn_status} answers the recorded outcome (logging an
          abort if there is none) *)

type t
(** A transaction manager bound to one client: issues transaction ids and
    runs the protocol through the client's retry/routing machinery. *)

val manager : engine:Sim.Engine.t -> config:Config.t -> Client.t -> t
(** [config] is accepted for existing callers; no transaction tunable is
    read from it. *)

val run :
  t ->
  reads:read list ->
  compute:(read_value list -> write list) ->
  (outcome -> unit) ->
  unit
(** Execute one transaction: snapshot-read [reads] (in order), hand the
    values to [compute], and atomically commit the writes it returns.

    [compute] returning [[]] commits a read-only transaction (its snapshot
    is consistent by construction — no validation needed). A transaction
    with no reads and exactly one single-cell write takes the fast path:
    it is issued as a plain {!Client.put}/{!Client.delete}, byte-identical
    to the non-transactional write path. Everything else runs full 2PC. *)

val pp_outcome : Format.formatter -> outcome -> unit
