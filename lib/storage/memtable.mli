(** In-memory sorted write buffer (§4.1).

    Committed writes are applied here and periodically flushed to an
    SSTable. Keeps at most one cell per (key, column): the caller decides
    which of the existing and incoming cells is newer via [newer]. *)

type t

val create : unit -> t

val put : t -> ?newer:(Row.cell -> Row.cell -> bool) -> Row.coord -> Row.cell -> unit
(** Insert/overwrite. With [newer] (e.g. {!Row.newer_by_timestamp}) the
    existing cell is kept when it is newer than the incoming one; by default
    the incoming cell always wins (Spinnaker applies in LSN order). One map
    descent. *)

(** {2 Staged bulk load}

    Recovery replay puts many cells, often to the same coordinates, into an
    empty memtable. Staging makes each of those puts a hash-table probe and
    builds the sorted map once per distinct coordinate. *)

type staged

val staged : ?newer:(Row.cell -> Row.cell -> bool) -> unit -> staged
(** An empty stage whose puts follow [newer] as {!put} does. *)

val stage : staged -> Row.coord -> Row.cell -> unit
(** {!put} into the stage. *)

val of_staged : staged -> t
(** A memtable with exactly the bindings, {!approx_bytes} and {!max_lsn} that
    {!put}ting the staged cells, in staging order, into an empty memtable
    gives. *)

val get : t -> Row.coord -> Row.cell option

val size : t -> int
(** Number of distinct (key, column) entries. *)

val approx_bytes : t -> int
(** Rough heap footprint, used to trigger flushes. *)

val is_empty : t -> bool

val to_sorted_list : t -> (Row.coord * Row.cell) list
(** Ascending {!Row.compare_coord} order — SSTable build input. *)

val range : t -> low:Row.key -> high:Row.key -> (Row.coord * Row.cell) list
(** Entries with [low <= key < high] (all columns), ascending. The bound
    convention (low inclusive, high exclusive, byte-wise key compare) matches
    {!Sstable.range} and [Store.scan]. O(log n + slice). *)

val to_seq_from : t -> low:Row.key -> (Row.coord * Row.cell) Seq.t
(** Lazy ascending walk starting at the first coordinate with key >= [low].
    Cursor support for {!Iterator} (scans stop consuming at their high
    bound instead of materialising the window). *)

val clear : t -> unit

val max_lsn : t -> Lsn.t
(** Largest LSN applied; {!Lsn.zero} when empty. *)
