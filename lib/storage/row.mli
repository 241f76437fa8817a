(** Rows, columns, cells.

    Spinnaker's data model (§3): a table maps a row key to any number of
    columns; each column holds an opaque value and a monotonically increasing
    version number managed by the datastore. A cell with [value = None] is a
    tombstone left by a delete. [timestamp] is the write's wall-clock stamp;
    Spinnaker ignores it, the eventually consistent baseline uses it for
    last-writer-wins conflict resolution. *)

type key = string

type column = string

type cell = {
  value : string option;  (** [None] is a tombstone *)
  version : int;
  lsn : Lsn.t;
  timestamp : int;  (** microseconds; Dynamo-style conflict resolution *)
  txn_ts : int option;
      (** commit timestamp when this version was installed by a committed
          multi-key transaction, [None] for plain single-key writes. Carried
          on the cell itself so interval MVCC visibility (txn versions order
          by commit timestamp, plain versions by LSN) survives every path
          that ships materialized cells — SSTable flush, catch-up, snapshot
          migration — rather than living only in a volatile side table. *)
}

type coord = key * column
(** The unit of storage addressing. *)

val compare_coord : coord -> coord -> int
(** Key-major, then column — the SSTable sort order (§4.1). *)

val equal_coord : coord -> coord -> bool

val tombstone : version:int -> lsn:Lsn.t -> timestamp:int -> cell

val is_tombstone : cell -> bool

val newer_by_lsn : cell -> cell -> bool
(** Spinnaker replica ordering: writes apply in LSN order within a cohort. *)

val newer_by_timestamp : cell -> cell -> bool
(** Dynamo/Cassandra ordering: last writer (by timestamp) wins; LSN breaks
    timestamp ties deterministically. *)

(** {2 System columns}

    Transaction bookkeeping (write intents, 2PC decision records) is stored
    in columns prefixed with ['\x00'] — a byte user columns cannot start
    with — so it rides the WAL, catch-up and migration as cells and is
    exactly as durable and replicated as data. Intent cells also live in the
    memtable and SSTables; decision cells live in the store's decision
    table, which each checkpoint carries ({!Store.decision}). Read paths
    filter system columns out of user-visible results. *)

val is_system_col : column -> bool

val system_prefix_length : int
(** Bytes {!intent_col} and {!decision_col} prepend to their argument. *)

val intent_col : column -> column
(** The system column holding a write intent for user column [col]. *)

val is_intent_col : column -> bool

val base_of_intent_col : column -> column
(** Inverse of {!intent_col}. *)

val decision_col : string -> column
(** The system column on the coordinator's anchor row holding transaction
    [txn]'s commit/abort decision. *)

val is_decision_col : column -> bool

type intent = {
  i_txn : string;  (** owning transaction id *)
  i_anchor : key;  (** coordinator anchor key (where the decision record lives) *)
  i_fence : Lsn.t;  (** the snapshot fence the transaction read this range at *)
  i_value : string option;  (** proposed value; [None] is a proposed delete *)
}

val encode_intent : intent -> string

val intent_length : intent -> int
(** [String.length (encode_intent i)], without building the string. *)

val decode_intent : string -> intent option

val encode_decision : commit:bool -> ts:int -> string
(** Payload of a decision cell: the verdict plus the commit timestamp that
    orders the transaction in the global MVCC timeline. *)

val decision_length : ts:int -> int
(** [String.length (encode_decision ~commit ~ts)], without building it. *)

val decode_decision : string -> (bool * int) option

val pp_cell : Format.formatter -> cell -> unit
