(** Write-ahead-log records.

    A node's log is shared by the (by default three) cohorts it belongs to
    (§4.1); each record is tagged with its cohort's key-range id and carries a
    logical, per-cohort LSN. There is no separate transaction-commit record —
    each write is a single-operation transaction (§5); instead the leader
    periodically logs the last committed LSN with a non-forced
    [Commit_upto] write, and store flushes log a [Checkpoint]. *)

type op =
  | Put of { key : Row.key; col : Row.column; value : string; version : int }
  | Delete of { key : Row.key; col : Row.column; version : int }
  | Batch of op list
      (** A client write of several cells (a multi-column put, or a
          multi-operation transaction, §8.2): the cell writes bound to one
          log record and one LSN, so the whole batch is exactly as
          durable and as replicated as any single write — all-or-nothing
          across crashes by construction. Batches are not nested. *)
  | Cohort_change of { add : int option; remove : int option }
      (** Membership-change meta record (§10): replicated and committed like
          a write, but produces no cells — applying it swaps [add] into the
          cohort and/or retires [remove]. *)
  | Split of { at : Row.key; new_range : int }
      (** Range-split meta record: the range splits at [at]; keys at or
          above [at] move to the new range id. Produces no cells. *)
  | Txn_prepare of {
      txn : string;
      anchor : Row.key;
      fence : Lsn.t;
      writes : (Row.key * Row.column * string option) list;
    }
      (** 2PC phase one at a participant cohort: replicates one write intent
          per coordinate (a {!Row.intent_col} system cell encoding the
          proposed value, the coordinator anchor, and the snapshot fence).
          Intents block snapshot readers and conflict with other writers
          until resolved. *)
  | Txn_decision of { txn : string; anchor : Row.key; commit : bool; ts : int }
      (** The coordinator cohort's commit/abort decision, replicated through
          its own Paxos log (a {!Row.decision_col} cell on the anchor row) —
          coordinator failover cannot lose it. [ts] is the commit timestamp
          ordering the transaction in the MVCC timeline. The cell goes to
          the store's decision table, not the memtable, and reaches the
          SSTables' durability through the checkpoint that carries the
          table. *)
  | Txn_resolve of {
      txn : string;
      commit : bool;
      ts : int;
      writes : (Row.key * Row.column * string option * int) list;
    }
      (** 2PC phase two at a participant: atomically installs the final data
          cells (on commit) and tombstones the intents. The concrete
          (key, col, value, version) list is computed once at the leader and
          embedded, so replicas apply deterministically. *)
  | Install_cell of { coord : Row.coord; cell : Row.cell }
      (** A materialized cell shipped by catch-up or snapshot migration,
          applied and logged verbatim on the receiver. Reconstructing a
          [Put]/[Delete] from a shipped cell would drop its [Row.cell.txn_ts]
          classification and a caught-up replica's snapshot reads would
          degrade to plain LSN visibility — exposing half a transaction. *)

type origin = {
  client : int;
  request_id : int;  (** the issuing request *)
  floor : int;
      (** the highest completion floor the leader had seen from the client
          when it logged the write: a lowest request id the client was still
          waiting on. Every id below it is settled, so a replica applying the
          record drops the client's cached outcomes below it. *)
}

(** A settled write outcome, as the duplicate-suppression reply cache holds
    it: what a retry of the request is answered with. *)
type outcome =
  | Written of Lsn.t  (** committed at this LSN *)
  | Decided of { commit : bool; ts : int }  (** a 2PC decision's recorded outcome *)
  | Version_mismatch of int  (** a conditional write refused at this current version *)
  | Txn_conflict
  | Cross_range

type reply_cache = (int * int * (int * outcome) list) list
(** A cohort's settled reply cache (RIFL's completion records): per client,
    [(client, floor, outcomes)] with the outcomes (request id, outcome) at
    or above the floor. Checkpoints store it and catch-up ships it. *)

module Decisions : Map.S with type key = Row.coord

type decisions = Row.cell Decisions.t
(** A store's decision table: each decision cell (with its LSN) by its
    coordinate, {!Row.decision_col} on the anchor row. Persistent, so a
    checkpoint shares the live table instead of copying it. *)

type entry =
  | Write of {
      lsn : Lsn.t;
      op : op;
      timestamp : int;
      origin : origin option;
          (** the request that issued the write, when known — lets a replica
              rebuild its reply cache (outcomes and floors) from the durable
              log, so a retried write is acked idempotently even across
              leader failover and restart *)
    }
  | Commit_upto of Lsn.t  (** last committed LSN; non-forced log write (§5) *)
  | Checkpoint of { upto : Lsn.t; replies : reply_cache; decisions : decisions }
      (** store flushed up to [upto]; log rolled over. [replies] is the
          cohort's settled reply cache when it flushed, which covers the
          outcome of every write at or below [upto] — so a restart rebuilds
          the cache from it plus the log tail, not from the rolled-over
          records' origins. [decisions] is the store's decision table,
          which holds every decision at or below [upto]: the SSTables do
          not. *)

type t = { cohort : int; entry : entry }

val write : cohort:int -> lsn:Lsn.t -> timestamp:int -> ?origin:origin -> op -> t

val commit_upto : cohort:int -> Lsn.t -> t

val checkpoint : cohort:int -> replies:reply_cache -> decisions:decisions -> Lsn.t -> t

val is_meta : op -> bool
(** Membership/split meta records (no cells). *)

val flatten : op -> op list
(** Batches flattened to their primitive puts/deletes, in order. Meta
    records flatten to nothing. *)

val op_coord : op -> Row.coord
(** First coordinate touched (a batch's routing/representative coordinate). *)

val cells_of_write : op -> lsn:Lsn.t -> timestamp:int -> (Row.coord * Row.cell) list
(** Every cell the op produces (one per primitive write, in order). *)

val cell_bytes : op -> int
(** Key, column and value bytes of every cell the op installs: the sum over
    {!cells_of_write}, computed from the op's fields without building the
    cells or their encoded payloads. *)

val approx_bytes : t -> int
(** Serialised size estimate, for log-force accounting. A checkpoint counts
    24 bytes whatever reply cache and decision table it holds. *)

val write_bytes : op -> int
(** {!approx_bytes} of a [Write] record carrying the op, computed without
    building the record. *)

val pp : Format.formatter -> t -> unit
