(** Streaming k-way merge over sorted cursors.

    The shared machinery of the LSM read path: {!Compaction.merge},
    [Store.scan], [Store.all_cells], and the memtable-flush table build all
    consume ascending [(coord, cell)] cursors through one binary-heap merge
    instead of materialising a per-call coordinate map.

    Duplicate coordinates across sources resolve exactly as the former
    map-based merges did: sources are ranked by their position in the list
    (first = consulted first, i.e. memtable before SSTables, newer tables
    before older ones) and a later cell replaces the current winner unless
    the winner is strictly [newer]. *)

type source = unit -> (Row.coord * Row.cell) option
(** A destructive cursor yielding entries in ascending {!Row.compare_coord}
    order; [None] once exhausted. *)

val of_sorted_list : (Row.coord * Row.cell) list -> source

val of_seq : ?high:Row.key -> (Row.coord * Row.cell) Seq.t -> source
(** Cursor over a lazy ascending sequence (e.g. {!Memtable.to_seq_from}),
    stopping before the first key at or beyond [high]. *)

val of_sstable : ?low:Row.key -> ?high:Row.key -> Sstable.t -> source
(** Cursor over an SSTable, optionally restricted to [low <= key < high];
    seeks to [low] by binary search. *)

type t

val merge : newer:(Row.cell -> Row.cell -> bool) -> source list -> t
(** O(k) heap build; each {!next} costs O(log k) per source holding the
    minimal coordinate. *)

val next : t -> (Row.coord * Row.cell) option
(** The next coordinate in ascending order with its winning cell (one result
    per distinct coordinate). Lazy: consumers that stop early (scans with a
    row limit) never touch the rest of the sources. *)

val fold : t -> ('a -> Row.coord -> Row.cell -> 'a) -> 'a -> 'a

val to_list : t -> (Row.coord * Row.cell) list
