(** A range leader's share of two-phase commit over Paxos (the design of
    "Serializability, not Serial"): the conflict checks and intent locks of
    a participant, and the first-decision-wins record of a coordinator.

    Its tables belong to one leadership term: {!rebuild} derives them from
    the store and the commit queue when a leader opens its cohort, and
    {!reset} drops them when the term ends. Every transaction record is
    still appended, replicated and applied by the cohort like any other
    write; this module only decides which record a request appends. *)

type t

val create : store:Storage.Store.t -> queue:Commit_queue.t -> t
(** Empty tables over the replica's store and commit queue, which the
    participant reads but never changes. *)

val reset : t -> unit

type verdict =
  | Append of Storage.Log_record.op  (** log this record; its commit answers *)
  | Answer of Storage.Log_record.outcome  (** settled now, nothing logged *)
  | Refuse  (** answer [Unavailable]; the client backs off and retries *)

val blocks_write : t -> Message.write_cell list -> bool
(** A plain write touching a coordinate that an unresolved intent holds,
    locked this term or applied: the cohort refuses it rather than
    interleave with the prepare window, where the intent's final version
    and LSN are not yet fixed. *)

val record :
  t -> routes_here:(Storage.Row.key -> bool) -> cmt:Storage.Lsn.t -> ts:int ->
  Message.client_op -> verdict
(** The verdict on a transaction request, taking its locks and table
    entries when it appends. A prepare outside this range answers
    [Cross_range]; one that conflicts — a foreign lock or intent, a pending
    write, or a version committed after its snapshot — answers
    [Txn_conflict]. A decide answers the decision on record, if any, else
    appends its own with timestamp [ts]; with [commit = false] it is the
    presumed-abort status query. A resolve appends the final cells of every
    intent the transaction holds here, at versions over the pending queue;
    with none left, or a resolve already appended, it answers
    [Written cmt]. Raises [Invalid_argument] on a plain write or a read. *)

val applied : t -> Storage.Log_record.op -> unit
(** A record committed and applied: a resolve ends its double-append guard,
    and a decision is answered from the store's decision cell from now on. *)

val rebuild : t -> unit
(** The tables a new term inherits: applied intents lock their
    coordinates, then the queued transaction records adjust them in LSN
    order. Without this a failed-over leader would grant conflicting
    prepares over live intents. *)

val sweep_period : Sim.Sim_time.span
(** How often a leader sweeps for in-doubt intents (2 s). *)

val indoubt_after : Sim.Sim_time.span
(** The age at which an unresolved intent counts as in-doubt (4 s). *)

val in_doubt : t -> now:int -> (string * Storage.Row.key * Storage.Row.key) list
(** The (txn, anchor, sample key) of every transaction holding an intent
    here older than {!indoubt_after} at [now] (µs), less those whose
    resolve is already appended: presumed-abort recovery asks their
    coordinators for the outcome. *)

val tables :
  t ->
  (Storage.Row.coord * string) list * (string * (bool * int)) list * string list
(** The locks, pending decisions and resolving transactions, sorted
    (inspection). *)
