(** The commit queue (§4.1, §5): a main-memory structure tracking writes that
    have been proposed but not yet committed, ordered by LSN.

    On the leader an entry commits once its log record is forced locally and
    at least one follower has acked; commits happen strictly in LSN order. On
    a follower entries wait for the leader's (possibly piggy-backed)
    asynchronous commit message.

    Layout: one array of entries sorted by LSN, live in a window that
    advances as entries commit, so the queue is a FIFO window over the log.
    Appending at the tail and popping at the head are O(1); {!mem},
    {!mark_forced}, {!origin_at} and the start of {!add_ack}'s walk
    binary-search the window; a back-filled LSN below the tail is inserted
    and a {!remove}d one deleted by shifting, and {!drop_above} cuts a
    suffix. Removed entries' slots are cleared, so nothing popped or dropped
    stays reachable from the queue.
    Beside the array sit a forced-prefix cursor for {!mark_forced_upto}, a
    per-coordinate version overlay for {!latest_version_for} (built on the
    first lookup, so a follower never maintains it), per-follower
    applied-ack watermarks for {!add_ack}, and the memoized frontier of
    {!contiguous_forced_upto}. *)

type entry = {
  lsn : Storage.Lsn.t;
  op : Storage.Log_record.op;
  timestamp : int;
  origin : Storage.Log_record.origin option;
      (** issuing request and its client's floor, for duplicate suppression *)
  mutable forced : bool;  (** local log record forced to disk *)
  mutable ackers : int list;  (** follower node ids that acked *)
  repl_span : int option;
      (** set only on a client write this replica appended as leader: the
          write's open [phase.replication] trace span (0 when tracing is
          off). It marks the entries whose write phases the leader samples
          when they commit; follower copies, takeover-rebuilt entries and
          metadata records carry none. *)
}

type t

val create : unit -> t

val add :
  t -> lsn:Storage.Lsn.t -> op:Storage.Log_record.op -> timestamp:int ->
  ?origin:Storage.Log_record.origin -> ?repl_span:int -> unit -> unit
(** Queue a write, unforced and unacked. Re-adding a queued LSN replaces its
    entry, and a follower whose applied ack covers the LSN is rewound so the
    new entry's acks are earned afresh. *)

val mem : t -> Storage.Lsn.t -> bool

val is_empty : t -> bool

val length : t -> int

val min_lsn : t -> Storage.Lsn.t option

val max_lsn : t -> Storage.Lsn.t option

val mark_forced_upto : t -> Storage.Lsn.t -> unit
(** Log forces are sequential, so a force completion covers every entry with
    an LSN at or below the forced point. Leader-side only: on a follower a
    retransmission can back-fill an older LSN whose own force is still in
    flight, so followers must mark exactly what they appended
    ({!mark_forced}). *)

val mark_forced : t -> Storage.Lsn.t -> unit
(** Mark a single entry's log record as forced. *)

val origin_at : t -> Storage.Lsn.t -> Storage.Log_record.origin option
(** Origin of the entry at the given LSN, when it is
    still queued and carried one — lets a follower tag its cumulative Ack
    with the trace of the newest write the Ack covers. *)

val add_ack : t -> from:int -> upto:Storage.Lsn.t -> unit

val pop_committable : t -> acks_needed:int -> entry list
(** Leader-side: remove and return, in LSN order, the maximal prefix of
    entries that are forced and have at least [acks_needed] distinct ackers.
    Stops at the first entry that does not qualify (commit order). *)

val pop_upto : t -> Storage.Lsn.t -> entry list
(** Follower-side: remove and return all entries with LSN [<=] the commit
    point, in LSN order. Only safe when the network cannot lose proposes;
    under loss use {!pop_contiguous}. *)

val pop_contiguous : t -> from:Storage.Lsn.t -> upto:Storage.Lsn.t -> entry list
(** Follower-side under a lossy network: remove and return, in LSN order, the
    entries at or below [upto] whose sequence numbers continue [from]'s
    without a hole. A hole means a propose was lost in flight — the caller
    must re-sync before applying anything beyond it. *)

val contiguous_forced_upto : t -> from:Storage.Lsn.t -> Storage.Lsn.t option
(** Largest LSN such that every entry from just above [from] through it is
    present, seq-contiguous, and forced — the honest upper bound a follower
    may ack when proposes can arrive with holes. *)

val remove : t -> Storage.Lsn.t -> entry option
(** Remove the entry at the given LSN, if queued, and return it — a takeover
    discards a record that a newer epoch's record at the same sequence
    number superseded. *)

val drop_above : t -> Storage.Lsn.t -> entry list
(** Remove entries above the given LSN (discarded on leader change); returns
    them so callers can fail their client replies. *)

val latest_version_for : t -> Storage.Row.coord -> int option
(** Version of the newest pending write to the coordinate — lets the leader
    assign version numbers and check conditional puts against in-flight
    writes, not just committed state. *)

val current_version : t -> Storage.Store.t -> Storage.Row.coord -> int
(** The version a new write to the coordinate builds on: the newest pending
    write's, else the store's committed one. The leader serialises writes,
    so this is the coordinate's current version (§3, §5.1). *)

val to_list : t -> entry list
