(** Client operations, replies, and the cohort replication protocol messages
    (Figure 4, §6, §3).

    Everything exchanged over the simulated network is one [t], so a node has
    a single typed inbox. *)

type write_cell =
  Storage.Row.key * Storage.Row.column * string option * int option
(** (key, col, value, expected): [None] as the value deletes the cell; [Some
    v] as the expected version requires the cell to be at version [v], the
    version the caller read (optimistic concurrency). *)

type client_op =
  | Get of {
      key : Storage.Row.key;
      col : Storage.Row.column;
      consistent : bool;
      token : Storage.Lsn.t;
    }
      (** strong ([consistent = true]) or timeline read (§3). [token] is the
          client's read-your-writes fence for timeline reads: a replica may
          answer only once it has applied commits up to [token]
          ([Storage.Lsn.zero] = no fence). Ignored for strong reads. *)
  | Multi_get of {
      key : Storage.Row.key;
      cols : Storage.Row.column list;
      consistent : bool;
      token : Storage.Lsn.t;
    }
  | Write of { cells : write_cell list }
      (** Every client write (§3's put, delete and their conditional and
          multi-column forms, and §8.2's multi-operation transaction): the
          cells are written atomically as one log record at one LSN, so
          the write is as durable and as replicated as any single cell. All
          keys must fall in one key range ([Cross_range] otherwise). A cell
          with an expected version makes the whole write conditional on it
          ([Version_mismatch] carries the first stale cell's version). *)
  | Scan of {
      start_key : Storage.Row.key;  (** inclusive *)
      end_key : Storage.Row.key;  (** exclusive *)
      limit : int;
      consistent : bool;
      token : Storage.Lsn.t;  (** read-your-writes fence, as for [Get] *)
    }
      (** Range scan over one cohort's slice of [start_key, end_key); the
          client stitches multi-range scans together range by range. *)
  | Fence of { key : Storage.Row.key }
      (** Strong read of the range's snapshot anchor: the leader answers
          [Fenced] with its applied commit point and the capture instant,
          under the same lease/guard gate as any strong read — the
          linearization point of a multi-range snapshot in this range. *)
  | Snap_get of {
      key : Storage.Row.key;
      col : Storage.Row.column;
      fence : Storage.Lsn.t;  (** this range's fence LSN (from [Fenced]) *)
      fence_ts : int;  (** the snapshot's global timestamp (min of captures) *)
    }
      (** MVCC snapshot read: served by any replica once its applied commit
          point reaches [fence] (the PR 9 token-parking path), evaluating
          interval visibility against [fence]/[fence_ts]. *)
  | Txn_prepare_req of {
      txn : string;
      anchor : Storage.Row.key;  (** coordinator anchor key *)
      fence : Storage.Lsn.t;  (** this range's snapshot fence *)
      fence_ts : int;
      writes : (Storage.Row.key * Storage.Row.column * string option) list;
          (** proposed writes in this range ([None] = delete) *)
    }
      (** 2PC phase one: replicate write intents through this participant's
          Paxos log after key-level first-committer-wins conflict checks. *)
  | Txn_decide_req of { txn : string; anchor : Storage.Row.key; commit : bool }
      (** Ask the coordinator cohort (owner of [anchor]) to replicate the
          commit/abort decision. First decision wins; the reply carries the
          outcome actually recorded. With [commit = false] it is also
          presumed-abort recovery's status query: if no decision is
          recorded, the coordinator logs an abort and answers with it. *)
  | Txn_resolve_req of { txn : string; key : Storage.Row.key; commit : bool; ts : int }
      (** 2PC phase two at [key]'s range: install final cells (commit) and
          clear every intent [txn] holds in that range. Idempotent. *)

type value_reply = { value : string option; version : int }

type client_reply =
  | Value of value_reply
  | Values of (Storage.Row.column * value_reply) list
  | Rows of {
      rows : (Storage.Row.key * (Storage.Row.column * value_reply) list) list;
          (** this cohort's rows in the window, ascending by key *)
      next : Storage.Row.key option;
          (** where this range's coverage stopped when short of the requested
              window; the client resumes the scan there. Server-reported so a
              client with a stale routing table cannot skip keys that a
              concurrent range split moved to a new cohort. *)
    }
  | Written of { lsn : Storage.Lsn.t }
      (** acked write with its commit LSN — the client remembers the highest
          per cohort as its read-your-writes token for timeline reads *)
  | Version_mismatch of { current : int }  (** conditional put/delete failed *)
  | Not_leader of { hint : int option }  (** strong ops must go to the leader *)
  | Wrong_range of { hint : int option }
      (** the serving node does not own the key's range under the current
          layout — the client must refresh its cached routing table (the
          layout epoch moved: a split or migration committed); [hint] is the
          probable leader of the owning range *)
  | Unavailable  (** cohort closed for writes (no leader / takeover running) *)
  | Cross_range  (** transaction keys span key ranges; not supported (§8.2) *)
  | Fenced of { lsn : Storage.Lsn.t; ts : int }
      (** snapshot anchor for one range: applied commit point + capture
          instant (µs), taken while the leader's lease/guard was valid *)
  | Snap_blocked of { txn : string }
      (** the snapshot read hit [txn]'s unresolved write intent at or below
          the fence; retry after it resolves (the owner may yet commit
          inside the snapshot) *)
  | Txn_conflict
      (** prepare refused: a foreign intent, a committed version newer than
          the snapshot fence (first-committer-wins), or a pending write on a
          touched coordinate *)
  | Txn_decided of { committed : bool; ts : int }
      (** the coordinator's durable decision and its commit timestamp *)
  | Stale_request
      (** the write's id is below the client's completion floor and its
          outcome is gone: the client already settled it, so this copy is a
          late duplicate and is never executed *)

type t =
  | Request of { client : int; request_id : int; floor : int; op : client_op }
      (** [floor]: the lowest request id the client is still waiting on. It
          has settled every id below, so replicas may forget their outcomes;
          not counted by {!size}. *)
  | Reply of { request_id : int; reply : client_reply }
  (* --- replication (Figure 4) --- *)
  | Propose of {
      range : int;
      epoch : int;  (** sender's leadership epoch; stale epochs are rejected *)
      writes :
        (Storage.Lsn.t * Storage.Log_record.op * int * Storage.Log_record.origin option) list;
          (** (lsn, op, timestamp, origin); one entry when a write is first
              proposed, more when the commit tick re-proposes the
              uncommitted tail. The origin — the issuing
              request and its client's floor, when known — travels with the
              write so every replica can recognise a duplicate retry even
              after a leader change. *)
      piggyback_cmt : Storage.Lsn.t option;
    }
  | Ack of { range : int; from : int; upto : Storage.Lsn.t }
  | Commit of { range : int; epoch : int; upto : Storage.Lsn.t }
  | Read_guard of { range : int; epoch : int; seq : int }
      (** read-index round for unleased strong reads: before answering, the
          leader must hear a majority confirm its epoch is still current —
          the quorum-intersection argument that replaces the lease *)
  | Read_guard_ack of { range : int; from : int; seq : int }
  (* --- recovery (§6) --- *)
  | Takeover_query of { range : int; epoch : int }
      (** new leader asks a follower for its last committed LSN (Fig 6 l.4);
          the follower steps under the new epoch and answers with a
          [Catchup_request] *)
  | Catchup_request of { range : int; from : int; cmt : Storage.Lsn.t }
      (** a follower advertises f.cmt to the leader and is caught up from
          it: after local recovery (§6.1), after a gap in its propose
          stream, and in answer to a [Takeover_query] *)
  | Catchup_data of {
      range : int;
      epoch : int;
      cells : (Storage.Row.coord * Storage.Row.cell) list;  (** ascending LSN *)
      upto : Storage.Lsn.t;
      replies : Storage.Log_record.reply_cache;
          (** the leader's settled reply cache: per client, its floor and
              its outcomes (request id, outcome) at or above it — the same
              cache a checkpoint stores. Cells carry
              no origins, so without these a caught-up replica that is later
              elected would re-execute retries of the writes it received as
              cells. Not counted by {!size}. *)
    }
      (** the leader's committed live cells in (f.cmt, [upto]], as the
          answer to a [Catchup_request]. The leader holds new writes until
          the follower's [Catchup_done], so the follower is fully caught up
          after this. A migration's bulk round (§10) is one too: it holds the
          leader's whole store up to [upto] (the newest cell per coordinate
          and the retained MVCC versions behind it, not the writes
          themselves) and is sent while writes go on; the joiner's
          [Catchup_done] then starts the usual final round. *)
  | Catchup_done of { range : int; from : int; upto : Storage.Lsn.t }
      (** the caught-up cells are durable at the follower; the leader
          activates it and re-proposes its pending writes (for a takeover,
          Figure 6 line 9) *)

val reply_of_outcome : Storage.Log_record.outcome -> client_reply
(** The reply that answers a write with its settled outcome. *)

val is_write : client_op -> bool

val key_of_op : client_op -> Storage.Row.key

val size : t -> int
(** Wire-size estimate in bytes, for network accounting. *)
