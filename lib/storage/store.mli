(** Per-cohort storage: memtable + size-tiered SSTables + LRU row cache +
    shared WAL + skipped-LSN list.

    One [t] exists per (node, key-range) pair. It owns the cohort's slice of
    the node's shared log and implements local recovery (§6.1): after a
    restart the memtable is rebuilt by re-applying durable log records from
    the most recent checkpoint through f.cmt, consulting the skipped-LSN
    list; records after f.cmt stay in the log for the catch-up phase.

    The read/maintenance path is streaming: point reads consult the row
    cache first, then probe memtable and bloom/LSN-pruned SSTables; scans and
    compactions run through {!Iterator}'s k-way heap merge. Compaction is
    size-tiered ({!Compaction.plan}): each merge covers one tier of adjacent
    similar-sized tables, so its work is bounded by the tier's bytes, with a
    full merge (and tombstone GC) only at the [max_sstables] safety valve or
    via {!major_compact}. *)

type t

type read_cost =
  | Cache_hit  (** served from the row cache, no table probed *)
  | Probed of int
      (** resolved against the memtable plus this many SSTable probes
          (bloom- and LSN-pruned tables excluded) *)

val create :
  cohort:int ->
  wal:Wal.t ->
  ?newer:(Row.cell -> Row.cell -> bool) ->
  ?flush_bytes:int ->
  ?compaction_fanin:int ->
  ?max_sstables:int ->
  ?cache_capacity:int ->
  ?mvcc_depth:int ->
  unit ->
  t
(** [newer] (default {!Row.newer_by_lsn}) resolves overlaps between tables on
    reads and compaction; the eventually consistent baseline passes
    {!Row.newer_by_timestamp}. [flush_bytes] (default 4 MiB) triggers
    memtable flush. [compaction_fanin] (default 4) is the tier width: a
    merge starts once that many adjacent similar-sized tables exist
    (similarity factor 2).
    [max_sstables] (default 16) forces a full merge with tombstone GC.
    [cache_capacity] (default 0 = disabled) bounds the LRU row cache in
    entries. [mvcc_depth] (default 64, at least 1) bounds each coordinate's
    in-memory version chain: a ring of its newest [mvcc_depth] versions,
    which an apply pushes onto in O(1), overwriting the oldest once full.
    A snapshot read that no retained version answers (the visible version
    is older than the ring, or was never chained, as after a crash) falls
    back to the interval rule applied cell by cell across the memtable and
    SSTables, which hold only each table's newest version of the
    coordinate: commit-timestamp visibility for transactionally installed
    versions, LSN visibility for the rest. *)

val wal : t -> Wal.t

val bounds : t -> (Row.key * Row.key) option
(** The range's [lo, hi) key bounds, when set. Cells outside the bounds
    (possible once SSTables are shared across a range split) are filtered
    from applies, scans, exports, catch-up, and compaction output. *)

val set_bounds : t -> lo:Row.key -> hi:Row.key -> unit

val split_point : t -> Row.key option
(** The median distinct key strictly inside the store's population — a
    balanced place to split the range — or [None] if the population is too
    small or too skewed to yield an interior key. *)

val split_child : t -> cohort:int -> lo:Row.key -> hi:Row.key -> t
(** A new store for the child range [[lo, hi)] sharing this store's
    (immutable) SSTables — no data copied or rewritten; the sibling's cells
    are dropped lazily by the child's own compactions. The parent's memtable
    must be flushed first. The child keeps every {!create} option of the
    parent, [mvcc_depth] included. Its flush horizon and [inherited_upto]
    are the shared tables' max LSN. It inherits the parent's decisions whose
    anchor lies in [[lo, hi)], and keeps them across a crash until its own
    first checkpoint holds them. *)

val skipped : t -> Skipped_lsns.t

val apply : t -> lsn:Lsn.t -> timestamp:int -> Log_record.op -> unit
(** Apply a committed write to the memtable, invalidating the written
    coordinates in the row cache and counting the write's log bytes toward
    {!flush_due}. Never flushes: the caller decides, once it has cached the
    write's outcome, so the checkpoint's reply cache covers it. Idempotent:
    re-applying a record yields the same state. *)

val get : t -> Row.coord -> Row.cell option
(** The newest cell across memtable and SSTables — including tombstones, so
    callers can expose version numbers for conditional puts. Cached: repeat
    lookups of a coordinate (negative results included) are O(1) until a
    write invalidates it or it falls out of the LRU. *)

val get_profiled : t -> Row.coord -> Row.cell option * read_cost
(** {!get} plus where the answer came from — the input to the leader's read
    CPU cost model. *)

val read : t -> Row.coord -> Row.cell option
(** Like {!get} but tombstones map to [None] (client-visible read). *)

val current_version : t -> Row.coord -> int
(** Version of the newest cell, 0 if the coordinate was never written. *)

(** {2 MVCC snapshot reads, the transaction intent index and decisions} *)

type snap_result =
  | Snap_cell of Row.cell  (** visible at the fence (may be a tombstone) *)
  | Snap_none  (** nothing visible at the fence *)
  | Snap_blocked of string
      (** an unresolved write intent of this transaction sits at or below
          the fence; the reader must wait for (or force) its resolution *)

val snapshot_get : t -> Row.coord -> fence:Lsn.t -> fence_ts:int -> snap_result
(** The coordinate's newest version visible under a snapshot anchored at
    this range's commit-LSN [fence] and the snapshot's global commit
    timestamp [fence_ts] (µs). Plain writes are visible iff their LSN is at
    or below [fence]; transactionally installed versions iff their commit
    timestamp is at or below [fence_ts]. Callers must only invoke this once
    the applied commit point has reached [fence]. Never served from the LRU
    row cache. *)

val head_info : t -> Row.coord -> (Lsn.t * int option) option
(** Newest installed version of a base coordinate: its LSN and, when it was
    installed by a committed transaction, that transaction's commit
    timestamp. The first-committer-wins conflict check's input. *)

val intent_txn_at : t -> Row.coord -> string option
(** The transaction holding an unresolved write intent on this (base)
    coordinate, if any. *)

val intents_of : t -> string -> (Row.coord * string option) list
(** The transaction's unresolved intents in this store: base coordinates
    with proposed values ([None] = proposed delete), ascending by
    coordinate. Empty once resolved. *)

val decision : t -> Row.coord -> Row.cell option
(** The decision cell at [(anchor, Row.decision_col txn)], if this store
    has applied one. Decision cells live in a per-store decision table,
    not the memtable or SSTables: every apply path (a write, a recovery
    replay, a shipped cell) routes them there, and every checkpoint
    carries the table, so a restart adopts the newest durable one and
    replays the log tail above it. {!get} does not see them. *)

val live_intents : t -> (string * Row.key * Row.coord list) list
(** Every unresolved transaction in this store: (txn, anchor, coords). The
    orphaned-intent audit's input; sorted for determinism. *)

val in_doubt : t -> now:int -> older_than:int -> (string * Row.key * Row.key) list
(** Transactions whose intents have been unresolved for at least
    [older_than] µs as of [now]: (txn, anchor, sample key). The presumed-
    abort sweep queries the anchor's cohort and resolves these. *)

val scan :
  t -> low:Row.key -> high:Row.key -> limit:int ->
  (Row.key * (Row.column * Row.cell) list) list
(** Rows with [low <= key < high], ascending by key, at most [limit] rows.
    Each row lists its live columns (per-column newest cell wins across
    memtable and SSTables; fully tombstoned rows are omitted). Streaming:
    stops reading the merged cursors as soon as [limit] rows are complete. *)

val flushed_upto : t -> Lsn.t

val sstable_count : t -> int

val memtable_size : t -> int
(** Entries currently in the memtable. *)

val memtable_bytes : t -> int
(** Approximate memtable payload bytes (the flush-threshold gauge). *)

val log_flush_ratio : int
(** The log-size trigger's multiple: {!flush_due} holds once the bytes
    logged since the last flush reach this many times the memtable's bytes
    (and {!log_flush_floor}). *)

val log_flush_floor : int
(** Log bytes below which the log-size trigger never fires (64 KiB). *)

val flush_due : t -> bool
(** Something applied is not yet checkpointed (memtable cells, or decisions
    above the flush horizon), and either the memtable holds [flush_bytes],
    or the log bytes of the writes applied since the last flush (a restart
    counts the replayed tail) reach [max log_flush_floor (log_flush_ratio ×
    memtable_bytes)]. The second trigger bounds what a restart replays by a
    fixed multiple of the state it rebuilds, however few keys are hot; a
    tail of decisions alone trips it at the floor. *)

val flush : t -> replies:Log_record.reply_cache -> unit
(** Flush the memtable into an SSTable, when it holds cells, and checkpoint
    through the newest applied cell or decision (a no-op when neither is
    above the last checkpoint). Appends a checkpoint record carrying
    [replies], the cohort's settled reply cache, and the decision table,
    then rolls the WAL over for this cohort only once the checkpoint is
    durable — GC-ing before the force opens a crash window in which the log
    holds neither the flushed writes nor the checkpoint. *)

val major_compact : t -> unit
(** Merge every SSTable into one, dropping tombstones — the explicit
    full-range GC; automatic compaction is tier-scoped. *)

val crash : t -> unit
(** Lose the memtable and row cache (volatile), including the in-memory
    flush horizon; the next {!recover} rederives it from the durable
    checkpoint. The WAL itself is crashed separately by the node, since it
    is shared. *)

val wipe : t -> unit
(** Lose SSTables and the skipped-LSN list too (disk failure). *)

val recover : t -> Lsn.t * Lsn.t
(** Local recovery. Rebuilds the memtable from the checkpoint through f.cmt
    and returns [(f.cmt, f.lst)] as read from stable storage. *)

val recover_all : t -> Lsn.t
(** Local recovery without a commit horizon: re-apply every durable record
    after the checkpoint and return the last LSN. Used by the eventually
    consistent baseline, where any logged write is immediately applied and
    divergence is reconciled by read repair / anti-entropy instead. *)

val all_cells : t -> (Row.coord * Row.cell) list
(** The newest cell for every coordinate (tombstones included), the
    decision table's cells among them, ascending by coordinate — Merkle-tree
    build input for anti-entropy and a migration's bulk round. *)

val committed_cells_in : t -> above:Lsn.t -> upto:Lsn.t -> (Row.coord * Row.cell) list
(** Committed writes with LSN in (above, upto], ascending by LSN — served
    from the log when available, otherwise from SSTables tagged with an
    overlapping LSN range and the decision table's cells in the window
    (§6.1). Used by leader-side catch-up. Coordinates
    only touched by plain writes collapse to their newest cell; a coordinate
    with any transactionally installed version in the window keeps every
    version, because the receiver rebuilds its MVCC chain from these cells
    and a missing intermediate version would turn a later interval snapshot
    read into a silent stale read. *)

val chain_history_cells : t -> (Row.coord * Row.cell) list
(** Retained MVCC versions behind the newest cell (the chain tails), for
    coordinates a committed transaction ever touched. Shipped with
    {!all_cells} in a migration's bulk round so the joiner can answer interval
    snapshot reads below a coordinate's newest version; plain-only chains
    are skipped (their visibility is decided by LSN alone). *)

val durable_write_lsns_in : t -> above:Lsn.t -> upto:Lsn.t -> Lsn.t list
(** LSNs of this cohort's durable log records in (above, upto] — the
    follower's side of logical-truncation bookkeeping. *)

val install_cells : t -> own:Lsn.t list -> (Row.coord * Row.cell) list -> unit
(** Install cells shipped by another replica — a leader's catch-up round,
    a migration's bulk round included — given ascending by LSN, so that they become
    this replica's durable prefix: one log record per LSN (the LSN's cells
    verbatim, as [Install_cell] ops), appended unless the LSN is in [own]
    (already durable here, e.g. from an earlier attempt), then applied. The
    caller forces the log. *)

val served_from_sstables : t -> int
(** How many catch-up requests could not be served from the log alone. *)

val sstables_skipped : t -> int
(** SSTables pruned from reads without probing: bloom-filter misses and
    tables whose [max_lsn] (point reads under LSN order) or key span (scans)
    could not beat the best cell already found. *)

val sstables_probed : t -> int
(** SSTables actually probed (binary-searched) by point reads. *)

(** {2 Row-cache counters} (all 0 when the cache is disabled) *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int
val cache_invalidations : t -> int
val cache_size : t -> int

(** {2 Compaction work accounting} *)

val compactions : t -> int
(** Merges run (tier-scoped and full). *)

val full_compactions : t -> int
(** Merges that covered every table (tombstone GC points). *)

val max_compaction_input_bytes : t -> int
(** Largest single-merge input — stays near one tier's bytes under tiered
    compaction instead of tracking the whole store. *)

val total_compaction_input_bytes : t -> int
(** Cumulative merge input (the write-amplification numerator). *)

val max_store_bytes_at_compaction : t -> int
(** Largest total SSTable footprint observed when a compaction ran — the
    baseline the tier-bounded-work claim is measured against. *)
