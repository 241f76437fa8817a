(** Background SSTable merging (§4.1), size-tiered.

    Instead of rebuilding the whole store whenever the table count crosses a
    threshold, {!plan} picks a run of adjacent, similar-sized tables (one
    size tier) to merge, so each compaction's work is bounded by that tier's
    bytes rather than the store's. A full merge — the only point where
    tombstones may be garbage-collected — happens only as a safety valve when
    the table count reaches [max_tables], or explicitly via
    [Store.major_compact]. *)

val build_table :
  newer:(Row.cell -> Row.cell -> bool) ->
  ?drop_tombstones:bool ->
  Iterator.source list ->
  Sstable.t
(** Stream the k-way merge of [sources] into a fresh SSTable — the single
    table-build path shared by compaction and memtable flush. *)

val merge :
  newer:(Row.cell -> Row.cell -> bool) ->
  ?drop_tombstones:bool ->
  Sstable.t list ->
  Sstable.t
(** K-way merge keeping, for each coordinate, the cell that [newer] prefers
    (ties go to the earlier table in the list, i.e. the newer one).
    [drop_tombstones] (default false) additionally discards tombstones — only
    safe on a full compaction covering every table of the store. *)

type plan =
  | All  (** full merge: every table, tombstone GC allowed *)
  | Run of { start : int; length : int }
      (** merge [length] adjacent tables starting at index [start] of the
          newest-first table list, splicing the result back in place *)

val plan : fanin:int -> max_tables:int -> ?growth:float -> Sstable.t list -> plan option
(** [plan ~fanin ~max_tables tables] on the newest-first table list: [All]
    once [max_tables] is reached; otherwise the cheapest (fewest total bytes)
    window of [fanin] adjacent similar-sized tables, extended over the rest
    of its tier up to [2 × fanin] tables; [None] when no tier is full. *)
