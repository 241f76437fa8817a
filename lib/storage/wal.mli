(** Shared write-ahead log with group commit (§4.1, §5).

    One log per node, shared by all of the node's cohorts; a dedicated
    logging device (a {!Sim.Resource.t} with a {!Sim.Disk_model.t} service
    time) serialises forces. Appends are buffered in a volatile tail;
    [force] makes everything appended so far durable. Concurrent force
    requests share a single device force — group commit [DeWitt et al. 84].

    Crash semantics: the volatile tail is lost, the durable prefix survives.
    [wipe] models losing the disk itself.

    Log rollover (§6.1): once a cohort's writes are captured in an SSTable,
    [gc_cohort] drops them from the log; catch-up requests that reach below
    the GC horizon must then be served from SSTables.

    The durable log is stored per cohort as arrays sorted by LSN: indexing a
    record is an O(1) append unless its LSN is below the cohort's last one,
    the first and last LSN cost O(1), a range walk costs O(log n + answer)
    rather than a scan of the whole log, and [gc_cohort] touches only the
    cohort being rolled over. *)

type t

val create :
  Sim.Engine.t ->
  disk:Sim.Resource.t ->
  model:Sim.Disk_model.t ->
  rng:Sim.Rng.t ->
  ?max_batch:int ->
  unit ->
  t
(** [max_batch] (default 16) bounds how many records one device force covers
    — the log buffer of a primitive log manager (§C). [max_batch:1] disables
    group commit (ablation). A force's service time is the device force cost
    plus the batch bytes over the device's sequential write bandwidth. *)

val append : t -> Log_record.t -> unit
(** Buffered, non-forced append (used for [Commit_upto] markers, §5). *)

val append_and_force : t -> Log_record.t -> (unit -> unit) -> unit

val force : t -> (unit -> unit) -> unit
(** Callback fires once everything appended before this call is durable. *)

val crash : t -> unit
(** Lose the volatile tail; cancel pending force callbacks. *)

val wipe : t -> unit
(** Lose the entire log (disk failure). *)

val durable_records : t -> Log_record.t list
(** Every durable record, oldest first, duplicate copies included: the whole
    log as one sequence, for checking the index against a list model.
    Recovery reads the per-cohort queries below instead. *)

val durable_count : t -> int

val forces_issued : t -> int
(** Device-level forces (batches), for group-commit accounting. *)

val volatile_bytes : t -> int
(** Bytes buffered in the volatile tail, maintained incrementally (never
    recounted); exposed for group-commit accounting tests. *)

val durable_writes : t -> cohort:int -> int
(** Durable [Write] records the log retains for the cohort, duplicate
    copies included: what the cohort's next rollover can release. *)

val last_write_lsn : t -> cohort:int -> Lsn.t
(** Largest durable [Write] LSN for the cohort — f.lst after a restart. *)

val last_commit_marker : t -> cohort:int -> Lsn.t
(** Largest durable [Commit_upto] value for the cohort. *)

val last_checkpoint : t -> cohort:int -> Lsn.t
(** Largest durable [Checkpoint] value for the cohort. *)

val last_checkpoint_replies : t -> cohort:int -> Log_record.reply_cache
(** The reply cache stored by the newest durable checkpoint at
    {!last_checkpoint} ([[]] when the cohort has none): a restart adopts
    it, then re-learns the outcomes of the log tail above the checkpoint. *)

val last_checkpoint_decisions : t -> cohort:int -> Log_record.decisions option
(** The decision table stored by the same checkpoint ([None] when the
    cohort has none): a restart adopts it, then replays the log tail above
    the checkpoint into it. *)

val durable_writes_in : t -> cohort:int -> above:Lsn.t -> upto:Lsn.t ->
  (Lsn.t * Log_record.op * int * Log_record.origin option) list
(** Durable [Write] records with LSN in (above, upto], ascending; the [int]
    is the record's timestamp, the option its origin. *)

val iter_durable_writes_in : t -> cohort:int -> above:Lsn.t -> upto:Lsn.t ->
  (Lsn.t -> Log_record.op -> int -> Log_record.origin option -> unit) -> unit
(** {!durable_writes_in} streamed: the callback sees each record in
    ascending LSN order without the list being built. The callback must not
    roll over, drop or wipe the cohort's log. *)

val write_lsns_at_seq : t -> cohort:int -> above:Lsn.t -> seq:int -> Lsn.t list
(** LSNs of the cohort's durable [Write] records above [above] whose
    sequence number is [seq], ascending — one per epoch that wrote it. *)

val gc_cohort : t -> cohort:int -> upto:Lsn.t -> unit
(** Roll over: drop the cohort's durable [Write] records with LSN [<= upto]
    and all but the newest [Commit_upto]/[Checkpoint] markers. *)

val drop_cohort : t -> cohort:int -> unit
(** Forget every record (durable and volatile) for the cohort — the node no
    longer hosts it. Without this, a node re-added to a range it once hosted
    would recover stale commit/checkpoint markers far beyond its (empty)
    replacement store and refuse perfectly good catch-up data. *)

val min_available_write_lsn : t -> cohort:int -> Lsn.t option
(** Smallest durable [Write] LSN still in the log for the cohort, or [None]
    if the log holds none — tells catch-up whether it can be served from the
    log or must fall back to SSTables. *)
