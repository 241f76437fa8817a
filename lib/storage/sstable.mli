(** Immutable sorted string table (§4.1).

    Built from a flushed memtable or a compaction merge. Indexed by
    (key, column) for point lookups, guarded by a per-key bloom filter, and
    tagged with the min and max LSN of the writes it contains so that
    recovery catch-up can be served from SSTables after the corresponding log
    records are rolled over (§6.1). *)

type t

val build : (Row.coord * Row.cell) list -> t
(** Input must be ascending in {!Row.compare_coord} with no duplicate
    coordinates; raises [Invalid_argument] otherwise. *)

val get : t -> Row.coord -> Row.cell option

val may_contain_key : t -> Row.key -> bool
(** Bloom-filter test (false positives possible). *)

val count : t -> int

val iter : t -> (Row.coord -> Row.cell -> unit) -> unit
(** Ascending coordinate order. *)

val to_list : t -> (Row.coord * Row.cell) list

val min_lsn : t -> Lsn.t
(** {!Lsn.zero} for an empty table. *)

val max_lsn : t -> Lsn.t

val has_intents : t -> bool
(** Whether any cell sits in an intent column ({!Row.is_intent_col}), live
    or tombstone — recorded at build time, so rebuilding the intent index
    merges only the tables that can hold an intent's newest resolution. *)

val min_key : t -> Row.key option

val max_key : t -> Row.key option

val cells_with_lsn_in : t -> above:Lsn.t -> upto:Lsn.t -> (Row.coord * Row.cell) list
(** Cells whose LSN lies in (above, upto] — the catch-up extraction path. *)

val range : t -> low:Row.key -> high:Row.key -> (Row.coord * Row.cell) list
(** Entries with [low <= key < high] (all columns), ascending; binary-searches
    to the start of the window. *)

val seek : t -> Row.key -> int
(** Index of the first entry whose key is at or after the given key (keys are
    the major sort component); [count t] when none is. Cursor support for
    {!Iterator}. *)

val entry : t -> int -> Row.coord * Row.cell
(** The i-th entry in ascending coordinate order. *)

val approx_bytes : t -> int
