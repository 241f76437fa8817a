(** Operation-history recording and register-linearizability checking.

    Strong reads in Spinnaker promise linearizability per key: each read
    returns the latest committed value, consistent with the real-time order
    of operations — across leader failovers. This module records timed
    operation histories and checks that promise for single-writer registers
    (one serial writer per key, unique monotone values; any number of
    concurrent readers), which is exactly the shape test harnesses produce.

    Checks performed per key:
    - every read observes a value that was actually written (no corruption);
    - reads never travel back in time: if read A completes before read B
      begins (any clients), B observes a value at least as new as A's;
    - reads dominate acknowledged writes: a read invoked after write W was
      acknowledged observes W's value or newer;
    - a read never observes a value before that value's write was invoked.

    Each operation is assumed to complete no earlier than it was invoked. *)

type t

val create : unit -> t

val record_write :
  t -> key:Storage.Row.key -> seq:int ->
  invoked:Sim.Sim_time.t -> completed:Sim.Sim_time.t -> acked:bool -> unit
(** [seq] is the writer's serial number for the key (strictly increasing). *)

val record_read :
  t -> key:Storage.Row.key -> observed:int option ->
  invoked:Sim.Sim_time.t -> completed:Sim.Sim_time.t -> unit
(** [observed] is the seq parsed from the value read; [None] = key absent. *)

type violation = {
  key : Storage.Row.key;
  explanation : string;
}

val check : t -> violation list
(** Empty iff the recorded history is consistent with a linearizable
    register per key. O(n log n) in a key's reads and writes: the reads
    sorted by invocation are swept against the reads and the acknowledged
    writes in completion order, and each observed seq is found by binary
    search over the writes by seq.

    Violations are counted per read, in six classes (a seq never written, a
    seq whose write was invoked after the read completed, time travel, a
    key lost after a seq was seen, a seq older than an acknowledged write,
    nothing after an acknowledged write). A key reports at most 8 witness
    lines, one per violation: a read in two classes is two violations. If
    a key has more violations than that, one more line per class gives the
    exact number of violating reads in it, as
    ["<count> <class description>"]. *)

val record_txn :
  t -> id:string -> commit_ts:int ->
  reads:(Storage.Row.key * string option) list ->
  writes:Storage.Row.key list -> unit
(** Record one {e committed} transaction for {!check_serializable}. Each read
    reports the id of the transaction whose write it observed ([None] = the
    initial state) — the harness encodes the writer's id into every value so
    observations identify their writers. Ids are unique. *)

val check_serializable : t -> violation list
(** Empty iff the recorded transactions are serializable. Builds the direct
    serialization graph — wr (read-from), ww (per-key writer order by commit
    timestamp), and rw (anti-dependency) edges — over dense transaction
    indices, and decides acyclicity with Kahn's algorithm: O(n log n) in the
    transactions' reads and writes. Reports each dependency cycle as a
    minimal witness (the shortest cycle through the least id of its
    strongly connected component), plus any read of a transaction that
    never committed. Working arrays are kept in [t] and reused by later
    calls. *)

val reads : t -> int

val writes : t -> int

val txns : t -> int

val pp_violation : Format.formatter -> violation -> unit

val fingerprint : t -> string
(** Hex digest of the full recorded history, folded in canonical (sorted)
    order so it is independent of internal table layout. Two runs with the
    same seed and the same fault schedule must produce equal fingerprints —
    the determinism regression oracle. *)
