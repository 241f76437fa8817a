(** 4-ary min-heap of timestamped events.

    Events with equal timestamps are ordered by insertion sequence number, so
    the simulation is fully deterministic. Cancellation is lazy: a cancelled
    entry stays in the heap and is skipped on pop — but once dead entries
    outnumber live ones the heap compacts itself (rebuilding the backing
    array with only live entries), so the backing store stays O(live). *)

type 'a t

type handle
(** Handle for cancelling a scheduled entry. *)

val create : unit -> 'a t

val size : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val backing_len : 'a t -> int
(** Number of slots (live + not-yet-compacted dead) in the backing array.
    Exposed for tests asserting the compaction invariant [backing_len = O(size)]. *)

val push : 'a t -> time:Sim_time.t -> 'a -> handle

val cancel : 'a t -> handle -> unit
(** Idempotent; cancelling after the entry popped is a no-op. *)

val is_cancelled : handle -> bool

val pop : 'a t -> (Sim_time.t * 'a) option
(** Removes and returns the earliest live entry. *)

(** {2 Zero-allocation pop}

    The engine's event loop runs hundreds of millions of pops per bench; the
    option/tuple returned by {!pop} is pure garbage there. The protocol is:
    call {!normalize}; if it returns [true] the heap top is live and
    {!next_time}/{!take} may read it directly. Calling [next_time] or [take]
    without a preceding [normalize = true] is undefined. *)

val normalize : 'a t -> bool
(** Drop cancelled entries off the top; [true] iff a live entry remains. *)

val next_time : 'a t -> Sim_time.t
(** Timestamp of the heap top. Only valid right after [normalize] returned
    [true]. *)

val take : 'a t -> 'a
(** Remove and return the heap top's payload. Only valid right after
    [normalize] returned [true]. *)
