(** Bounded LRU row cache for the read path.

    Keyed by (key, column); the store caches resolved {!Store.get} results
    (the winning cell, tombstones and negative lookups included) so hot-key
    reads skip the memtable probe, bloom filters, and per-SSTable binary
    searches entirely. Writes invalidate the touched coordinates
    (write-through invalidation); tombstone-dropping compactions clear the
    cache wholesale. All operations are O(1).

    Counters (hits, misses, evictions, invalidations) are cumulative for the
    cache's lifetime; they feed the per-node metrics gauges and the
    [BENCH_read.json] series. *)

type 'v t

val create : capacity:int -> unit -> 'v t
(** Raises [Invalid_argument] when [capacity <= 0] (callers gate a disabled
    cache themselves). *)

val find : 'v t -> Row.coord -> 'v option
(** Lookup; promotes the entry to most-recently-used and counts a hit or a
    miss. *)

val put : 'v t -> Row.coord -> 'v -> unit
(** Insert or refresh, evicting the least recently used entry when full. *)

val invalidate : 'v t -> Row.coord -> unit
(** Drop one coordinate (no-op when absent). *)

val clear : 'v t -> unit
(** Drop every entry, keeping the counters. *)

val size : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int
val evictions : 'v t -> int
val invalidations : 'v t -> int

val hit_rate : 'v t -> float
(** hits / (hits + misses); 0.0 before any lookup. *)
