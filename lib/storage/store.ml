type read_cost = Cache_hit | Probed of int

(* A coordinate's in-memory version chain: its newest [mvcc_depth] cells,
   strictly descending by LSN. A cell whose [txn_ts] is [Some ts] was
   installed by a committed transaction: its visibility under a snapshot is
   decided by the commit timestamp, not the per-range LSN. One version is a
   single box; longer chains live in a ring whose array starts at four
   slots, doubles up to [mvcc_depth] slots and then wraps, each push
   overwriting the oldest version. Version [i] (0 = newest) sits at slot
   [(head + i) mod capacity], for [i < len]; the other slots are unused. *)
type chain =
  | One of { mutable only : Row.cell }
  | Ring of { mutable slots : Row.cell array; mutable head : int; mutable len : int }

type snap_result =
  | Snap_cell of Row.cell  (** visible at the fence (may be a tombstone) *)
  | Snap_none  (** nothing visible at the fence *)
  | Snap_blocked of string  (** an undecided intent of this txn blocks the read *)

(* Live (unresolved) write intents of one transaction in this range. *)
type intent_info = {
  mutable ii_writes : (Row.coord * string option) list;  (** base coords + proposed values *)
  ii_anchor : Row.key;
  ii_fence : Lsn.t;
  ii_lsn : Lsn.t;  (** prepare LSN (first intent cell seen) *)
  ii_time : int;  (** prepare apply timestamp, µs — ages into in-doubt *)
}

type t = {
  cohort : int;
  wal : Wal.t;
  skipped : Skipped_lsns.t;
  newer : Row.cell -> Row.cell -> bool;
  flush_bytes : int;
  compaction_fanin : int;
  max_sstables : int;
  cache_capacity : int;
  cache : Row.cell option Cache.t option;
  mutable bounds : (Row.key * Row.key) option;
      (** [lo, hi) key bounds once the range has split; cells outside are
          the sibling's and are filtered from exports, catch-up, and
          compaction output *)
  mutable inherited_upto : Lsn.t;
      (** for a split child sharing the parent's SSTables: the highest LSN
          those tables may contain. Durable metadata — survives [crash] —
          because the child's own log starts after the split, so recovery
          must not pretend the log covers the inherited prefix *)
  mutable memtable : Memtable.t;
  mutable sstables : Sstable.t list;  (** newest first *)
  mutable flushed_upto : Lsn.t;
  mutable served_from_sstables : int;
  lsn_ordered : bool;
      (** [newer] is LSN order, so an SSTable whose [max_lsn] is at or below
          the best cell found so far cannot improve a read. *)
  mutable sstables_skipped : int;
  mutable sstables_probed : int;
  mutable compactions : int;
  mutable full_compactions : int;
  mutable max_compaction_input_bytes : int;
  mutable total_compaction_input_bytes : int;
  mutable max_store_bytes : int;
      (** largest total SSTable footprint observed when a compaction ran —
          the denominator of the tier-bounded-work claim *)
  mvcc_depth : int;  (** per-coordinate version-chain cap *)
  mvcc : (Row.coord, chain) Hashtbl.t;
      (** in-memory version chains, newest first; rebuilt from the WAL on
          recovery (a read no chained version answers applies the interval
          rule to the memtable's and SSTables' cells instead) *)
  mutable logged_bytes : int;
      (** log bytes of the writes applied since the last flush (recovery
          counts the replayed tail): the log-size flush trigger's gauge *)
  intents : (string, intent_info) Hashtbl.t;  (** txn id -> live intents *)
  intent_at : (Row.coord, string) Hashtbl.t;  (** base coord -> owning txn *)
  mutable decisions : Log_record.decisions;
      (** decision coordinate -> its cell. Decisions never enter the memtable or
          the SSTables: each is a new coordinate that is never overwritten,
          so they would grow the memtable with the log and keep the
          log-size trigger from firing. Each checkpoint carries the table. *)
  mutable decided_upto : Lsn.t;
      (** highest LSN of an applied decision cell (volatile): the table holds
          decisions no checkpoint covers while it is above [flushed_upto] *)
  mutable flushed_decisions : Log_record.decisions option;
      (** the table as of the last flush, until a crash: the image a replay
          without a crash starts from, when that flush's checkpoint may not
          be durable yet *)
  mutable inherited_decisions : Log_record.decisions;
      (** for a split child: the parent's decisions whose anchor it owns.
          Durable metadata like [inherited_upto], adopted by a replay until
          the child's own first checkpoint *)
}

let create ~cohort ~wal ?(newer = Row.newer_by_lsn) ?(flush_bytes = 4 * 1024 * 1024)
    ?(compaction_fanin = 4) ?(max_sstables = 16) ?(cache_capacity = 0) ?(mvcc_depth = 64) () =
  if mvcc_depth < 1 then invalid_arg "Store.create: mvcc_depth must be positive";
  {
    cohort;
    wal;
    skipped = Skipped_lsns.create ();
    newer;
    flush_bytes;
    compaction_fanin;
    max_sstables;
    cache_capacity;
    cache = (if cache_capacity > 0 then Some (Cache.create ~capacity:cache_capacity ()) else None);
    bounds = None;
    inherited_upto = Lsn.zero;
    memtable = Memtable.create ();
    sstables = [];
    flushed_upto = Lsn.zero;
    served_from_sstables = 0;
    lsn_ordered = newer == Row.newer_by_lsn;
    sstables_skipped = 0;
    sstables_probed = 0;
    compactions = 0;
    full_compactions = 0;
    max_compaction_input_bytes = 0;
    total_compaction_input_bytes = 0;
    max_store_bytes = 0;
    mvcc_depth;
    mvcc = Hashtbl.create 256;
    logged_bytes = 0;
    intents = Hashtbl.create 16;
    intent_at = Hashtbl.create 16;
    decisions = Log_record.Decisions.empty;
    decided_upto = Lsn.zero;
    flushed_decisions = None;
    inherited_decisions = Log_record.Decisions.empty;
  }

let wal t = t.wal
let skipped t = t.skipped
let bounds t = t.bounds
let set_bounds t ~lo ~hi = t.bounds <- Some (lo, hi)

let in_bounds t key =
  match t.bounds with
  | None -> true
  | Some (lo, hi) -> String.compare lo key <= 0 && String.compare key hi < 0
let flushed_upto t = t.flushed_upto
let sstable_count t = List.length t.sstables
let memtable_size t = Memtable.size t.memtable
let memtable_bytes t = Memtable.approx_bytes t.memtable
let served_from_sstables t = t.served_from_sstables
let sstables_skipped t = t.sstables_skipped
let sstables_probed t = t.sstables_probed
let sstable_bytes t = List.fold_left (fun a s -> a + Sstable.approx_bytes s) 0 t.sstables
let compactions t = t.compactions
let full_compactions t = t.full_compactions
let max_compaction_input_bytes t = t.max_compaction_input_bytes
let total_compaction_input_bytes t = t.total_compaction_input_bytes
let max_store_bytes_at_compaction t = t.max_store_bytes
let cache_hits t = match t.cache with Some c -> Cache.hits c | None -> 0
let cache_misses t = match t.cache with Some c -> Cache.misses c | None -> 0
let cache_evictions t = match t.cache with Some c -> Cache.evictions c | None -> 0
let cache_invalidations t = match t.cache with Some c -> Cache.invalidations c | None -> 0
let cache_size t = match t.cache with Some c -> Cache.size c | None -> 0

let clear_cache t = match t.cache with Some c -> Cache.clear c | None -> ()

(* ------------------------------------------------------------------ *)
(* Compaction: size-tiered runs, full merge only at the table cap.      *)

let record_compaction t ~input_bytes ~full =
  t.compactions <- t.compactions + 1;
  if full then t.full_compactions <- t.full_compactions + 1;
  if input_bytes > t.max_compaction_input_bytes then
    t.max_compaction_input_bytes <- input_bytes;
  t.total_compaction_input_bytes <- t.total_compaction_input_bytes + input_bytes;
  let store_bytes = sstable_bytes t in
  if store_bytes > t.max_store_bytes then t.max_store_bytes <- store_bytes

(* Split-aware compaction: a child range shares its parent's tables, so a
   merge is where the sibling's cells finally get dropped. *)
let clamp_table t table =
  match t.bounds with
  | None -> table
  | Some _ ->
    Compaction.build_table ~newer:t.newer
      [
        Iterator.of_sorted_list
          (List.filter (fun ((key, _), _) -> in_bounds t key) (Sstable.to_list table));
      ]

(* Split [tables] into (prefix, run, suffix) with [run] the [length] tables
   starting at [start]. *)
let split_run tables ~start ~length =
  let rec go i acc = function
    | rest when i = start ->
      let rec take n run rest =
        match (n, rest) with
        | 0, _ -> (List.rev acc, List.rev run, rest)
        | _, x :: tl -> take (n - 1) (x :: run) tl
        | _, [] -> invalid_arg "Store.split_run: run exceeds table list"
      in
      take length [] rest
    | x :: tl -> go (i + 1) (x :: acc) tl
    | [] -> invalid_arg "Store.split_run: start exceeds table list"
  in
  go 0 [] tables

(* Merge every table into one. Covering every table makes tombstone GC
   safe (§4.1) — which in turn can change [get]'s answer for deleted
   coordinates, so the row cache must drop its entries. *)
let compact_all t =
  let input_bytes = sstable_bytes t in
  record_compaction t ~input_bytes ~full:true;
  t.sstables <- [ clamp_table t (Compaction.merge ~newer:t.newer ~drop_tombstones:true t.sstables) ];
  clear_cache t

let rec maybe_compact t =
  match Compaction.plan ~fanin:t.compaction_fanin ~max_tables:t.max_sstables t.sstables with
  | None -> ()
  | Some Compaction.All ->
    (* Safety valve: the tiers failed to keep the fan-in down (or a caller
       forced a major compaction). *)
    compact_all t
  | Some (Compaction.Run { start; length }) ->
    let prefix, run, suffix = split_run t.sstables ~start ~length in
    let input_bytes = List.fold_left (fun a s -> a + Sstable.approx_bytes s) 0 run in
    record_compaction t ~input_bytes ~full:false;
    (* Partial merge: tombstones must survive, they may shadow live cells in
       older tables outside the run. *)
    let merged = clamp_table t (Compaction.merge ~newer:t.newer run) in
    t.sstables <- prefix @ (merged :: suffix);
    (* The merged table may complete the next tier down; cascade until no
       tier is full. Terminates: every merge shrinks the table count. *)
    maybe_compact t

let major_compact t = if t.sstables <> [] then compact_all t

(* The log-size flush trigger. The log is rolled over only at a flush
   (§4.1), so a memtable of a few hot keys that never reaches [flush_bytes]
   would let the log, and every restart's replay, grow for the whole run.
   Flushing once the bytes logged since the last flush reach
   [log_flush_ratio] times the memtable's bytes bounds the replayed tail by
   that multiple of the state it rebuilds. [log_flush_floor] keeps a single
   hot key from being flushed every few writes. *)
let log_flush_ratio = 8
let log_flush_floor = 64 * 1024

(* Something applied is not yet covered by a checkpoint: cells in the
   memtable, or decisions above the flush horizon. A tail of decisions alone
   leaves the memtable empty, and must still roll over. *)
let unflushed t =
  (not (Memtable.is_empty t.memtable)) || Lsn.(t.decided_upto > t.flushed_upto)

let flush_due t =
  unflushed t
  &&
  let bytes = Memtable.approx_bytes t.memtable in
  bytes >= t.flush_bytes || t.logged_bytes >= Stdlib.max log_flush_floor (log_flush_ratio * bytes)

let flush t ~replies =
  if unflushed t then begin
    let upto = Lsn.max t.flushed_upto (Lsn.max (Memtable.max_lsn t.memtable) t.decided_upto) in
    if not (Memtable.is_empty t.memtable) then begin
      let table =
        clamp_table t
          (Compaction.build_table ~newer:t.newer
             [ Iterator.of_sorted_list (Memtable.to_sorted_list t.memtable) ])
      in
      t.sstables <- table :: t.sstables;
      t.memtable <- Memtable.create ()
    end;
    t.flushed_upto <- upto;
    t.flushed_decisions <- Some t.decisions;
    t.logged_bytes <- 0;
    Wal.append t.wal
      (Log_record.checkpoint ~cohort:t.cohort ~replies ~decisions:t.decisions upto);
    (* Roll the log over only once the checkpoint record is durable. GC-ing
       eagerly opens a crash window in which the durable log holds neither
       the flushed writes nor the checkpoint that replaced them, so recovery
       would silently lose committed data. [Wal.crash] cancels the waiter,
       leaving the log intact across a crash inside the window. *)
    Wal.force t.wal (fun () ->
        Wal.gc_cohort t.wal ~cohort:t.cohort ~upto;
        Skipped_lsns.gc_upto t.skipped upto);
    maybe_compact t
  end

(* ------------------------------------------------------------------ *)
(* MVCC chains and the intent index, maintained on every applied cell.   *)

let ring_index slots ~head i =
  let j = head + i in
  if j >= Array.length slots then j - Array.length slots else j

let nth_version chain i =
  match chain with
  | One { only } -> only
  | Ring r -> r.slots.(ring_index r.slots ~head:r.head i)

let chain_length = function One _ -> 1 | Ring r -> r.len

(* A full ring below the cap unrolls into an array twice as large (at most
   [mvcc_depth] slots), newest at slot 0, so the next version has a free
   slot. Full means every slot is in use, so the unrolling is two blits. *)
let make_room t chain =
  match chain with
  | Ring ({ slots; head; len } as r) when len = Array.length slots && len < t.mvcc_depth ->
    let bigger = Array.make (min t.mvcc_depth (2 * len)) slots.(head) in
    Array.blit slots head bigger 0 (len - head);
    Array.blit slots 0 bigger (len - head) head;
    r.slots <- bigger;
    r.head <- 0
  | _ -> ()

let push_version t coord (cell : Row.cell) =
  let lsn = cell.Row.lsn in
  match Hashtbl.find t.mvcc coord with
  | exception Not_found -> Hashtbl.add t.mvcc coord (One { only = cell })
  | One o ->
    let only = o.only in
    if Lsn.equal only.Row.lsn lsn then
      (* Idempotent re-apply (catch-up, recovery replay): replace in place. *)
      o.only <- cell
    else if t.mvcc_depth = 1 then (if Lsn.(lsn > only.Row.lsn) then o.only <- cell)
    else begin
      (* Start with room for four: growing a two-slot ring was a visible
         share of short chains' cost. *)
      let newer, older = if Lsn.(lsn > only.Row.lsn) then (cell, only) else (only, cell) in
      let slots = Array.make (min t.mvcc_depth 4) older in
      slots.(0) <- newer;
      Hashtbl.replace t.mvcc coord (Ring { slots; head = 0; len = 2 })
    end
  | Ring r as chain ->
    let newest = r.slots.(r.head) in
    if Lsn.equal newest.Row.lsn lsn then r.slots.(r.head) <- cell
    else if Lsn.(lsn > newest.Row.lsn) then begin
      (* The common case, O(1): the slot before the head is free, or holds
         the oldest version of a full ring, which falls off. *)
      make_room t chain;
      let cap = Array.length r.slots in
      r.head <- (if r.head = 0 then cap - 1 else r.head - 1);
      r.slots.(r.head) <- cell;
      if r.len < cap then r.len <- r.len + 1
    end
    else begin
      (* Below the head (rare, bounded by the cap): an out-of-order duplicate
         is already represented; anything else shifts into its
         descending-LSN position, and a full ring drops its oldest
         version. *)
      let lsn_at i = (nth_version chain i).Row.lsn in
      let rec position i = if i < r.len && Lsn.(lsn_at i > lsn) then position (i + 1) else i in
      let p = position 1 in
      let duplicate = p < r.len && Lsn.equal (lsn_at p) lsn in
      if (not duplicate) && (p < r.len || r.len < t.mvcc_depth) then begin
        make_room t chain;
        if r.len < Array.length r.slots then r.len <- r.len + 1;
        for i = r.len - 1 downto p + 1 do
          r.slots.(ring_index r.slots ~head:r.head i) <- nth_version chain (i - 1)
        done;
        r.slots.(ring_index r.slots ~head:r.head p) <- cell
      end
    end

(* Track an applied intent cell in the in-memory intent index; decision
   cells go to the decision table instead. Driven by the cell's coordinate,
   not the op shape, so catch-up and migration (which replay cells as plain
   puts) keep the index right. *)
let track_system_cell t (key, col) (cell : Row.cell) =
  if Row.is_intent_col col then begin
    let base = (key, Row.base_of_intent_col col) in
    match cell.Row.value with
    | Some payload -> (
      match Row.decode_intent payload with
      | Some { Row.i_txn; i_anchor; i_fence; i_value } -> (
        (* A newer intent at this coordinate proves the previous one was
           resolved (its prepare would have conflicted otherwise) — evict
           the prior owner even if we never saw its tombstone, e.g. when
           catch-up's newest-per-coordinate collapse shipped only the
           newer intent over the tombstone that cleared the old one. *)
        (match Hashtbl.find_opt t.intent_at base with
        | Some prev when prev <> i_txn -> (
          match Hashtbl.find_opt t.intents prev with
          | Some info ->
            info.ii_writes <-
              List.filter (fun (c, _) -> not (Row.equal_coord c base)) info.ii_writes;
            if info.ii_writes = [] then Hashtbl.remove t.intents prev
          | None -> ())
        | _ -> ());
        Hashtbl.replace t.intent_at base i_txn;
        match Hashtbl.find_opt t.intents i_txn with
        | Some info ->
          if not (List.mem_assoc base info.ii_writes) then
            info.ii_writes <- (base, i_value) :: info.ii_writes
        | None ->
          Hashtbl.replace t.intents i_txn
            {
              ii_writes = [ (base, i_value) ];
              ii_anchor = i_anchor;
              ii_fence = i_fence;
              ii_lsn = cell.Row.lsn;
              ii_time = cell.Row.timestamp;
            })
      | None -> ())
    | None -> (
      (* Intent tombstone: the transaction resolved at this coordinate. *)
      match Hashtbl.find_opt t.intent_at base with
      | Some txn -> (
        Hashtbl.remove t.intent_at base;
        match Hashtbl.find_opt t.intents txn with
        | Some info ->
          info.ii_writes <-
            List.filter (fun (c, _) -> not (Row.equal_coord c base)) info.ii_writes;
          if info.ii_writes = [] then Hashtbl.remove t.intents txn
        | None -> ())
      | None -> ())
  end

(* A decision cell goes to the decision table. The first decision wins at
   the participant, so a transaction has one; should a second arrive, the
   newer cell wins, as it would in the memtable. *)
let record_decision t coord (cell : Row.cell) =
  (match Log_record.Decisions.find_opt coord t.decisions with
  | Some old when t.newer old cell -> ()
  | _ -> t.decisions <- Log_record.Decisions.add coord cell t.decisions);
  t.decided_upto <- Lsn.max t.decided_upto cell.Row.lsn

(* A split parent's table keeps the decisions it handed to the child (a
   restart may adopt a checkpoint from before the split); they are not its
   own to answer. *)
let decision t ((key, _) as coord) =
  if in_bounds t key then Log_record.Decisions.find_opt coord t.decisions else None

(* Where an ingested cell's memtable half goes: straight into the memtable
   ([apply], catch-up), or into the replay stage that recovery loads as its
   memtable once the log has been walked. *)
type sink = Apply | Replay of Memtable.staged

let to_memtable t sink coord cell =
  match sink with
  | Apply -> Memtable.put t.memtable ~newer:t.newer coord cell
  | Replay stage -> Memtable.stage stage coord cell

(* The per-cell ingest shared by [apply] and recovery replay. The cell's own
   [txn_ts] marks data cells installed by a committed transaction — carried
   on the cell (not derived from the op shape) so catch-up and migration,
   which ship materialized cells, classify versions identically. Decision
   cells go to the decision table, whatever path brings them. *)
let ingest_cell t sink ((key, col) as coord) (cell : Row.cell) =
  if in_bounds t key then begin
    if Row.is_system_col col then begin
      if Row.is_decision_col col then record_decision t coord cell
      else begin
        to_memtable t sink coord cell;
        track_system_cell t coord cell
      end
    end
    else begin
      to_memtable t sink coord cell;
      push_version t coord cell;
      (* Write-through invalidation: the next read re-resolves the winner.
         Replay runs on the cache recovery just cleared. *)
      match (sink, t.cache) with Apply, Some c -> Cache.invalidate c coord | _ -> ()
    end
  end

let apply t ~lsn ~timestamp op =
  List.iter
    (fun (coord, cell) -> ingest_cell t Apply coord cell)
    (Log_record.cells_of_write op ~lsn ~timestamp);
  t.logged_bytes <- t.logged_bytes + Log_record.write_bytes op

(* The uncached lookup: newest cell across memtable and SSTables, counting
   how many tables were actually probed (bloom/LSN-pruned tables are not). *)
let lookup t coord =
  let best = ref (Memtable.get t.memtable coord) in
  let probed = ref 0 in
  let consider cell =
    match !best with
    | Some existing when t.newer existing cell -> ()
    | _ -> best := Some cell
  in
  List.iter
    (fun table ->
      (* Skip tables that cannot beat the best cell found so far: bloom says
         the key is absent, or (under LSN order) every cell in the table is
         at or below the current best. Equal LSNs denote the same write, so
         skipping the tie is safe. *)
      let cannot_win =
        (not (Sstable.may_contain_key table (fst coord)))
        ||
        match !best with
        | Some existing when t.lsn_ordered -> Lsn.(existing.Row.lsn >= Sstable.max_lsn table)
        | _ -> false
      in
      if cannot_win then t.sstables_skipped <- t.sstables_skipped + 1
      else begin
        incr probed;
        t.sstables_probed <- t.sstables_probed + 1;
        match Sstable.get table coord with Some cell -> consider cell | None -> ()
      end)
    t.sstables;
  (!best, !probed)

let get_profiled t coord =
  match t.cache with
  | None ->
    let cell, probed = lookup t coord in
    (cell, Probed probed)
  | Some cache ->
    (* System columns (intents) bypass the row cache in both directions:
       they mutate out of band of the user write path, and a cached copy
       could hand a snapshot reader a stale resolution state. *)
    if Row.is_system_col (snd coord) then begin
      let cell, probed = lookup t coord in
      (cell, Probed probed)
    end
    else (
      match Cache.find cache coord with
      | Some cell -> (cell, Cache_hit)
      | None ->
        let cell, probed = lookup t coord in
        Cache.put cache coord cell;
        (cell, Probed probed))

let get t coord = fst (get_profiled t coord)

(* ------------------------------------------------------------------ *)
(* Snapshot reads at a commit-LSN fence (Minnal-style interval MVCC).

   A version installed by a plain write is visible iff its LSN is at or
   below this range's fence; a version installed by a committed transaction
   is visible iff its commit timestamp is at or below the snapshot's global
   timestamp. An unresolved intent at or below the fence blocks the reader —
   the owning transaction may yet commit with a timestamp inside the
   snapshot. Never served from the LRU row cache: the cache holds only the
   newest resolution, which may postdate the fence. *)

(* Every cell version still reachable for [coord] across memtable and
   SSTables (each table keeps at most one per coord). Newest-first order is
   not guaranteed; callers pick by predicate. *)
let all_versions_at t coord =
  let acc = ref (match Memtable.get t.memtable coord with Some c -> [ c ] | None -> []) in
  List.iter
    (fun table ->
      if Sstable.may_contain_key table (fst coord) then begin
        t.sstables_probed <- t.sstables_probed + 1;
        match Sstable.get table coord with Some c -> acc := c :: !acc | None -> ()
      end
      else t.sstables_skipped <- t.sstables_skipped + 1)
    t.sstables;
  !acc

let snapshot_get t coord ~fence ~fence_ts =
  let key, col = coord in
  let blocked_by =
    match fst (lookup t (key, Row.intent_col col)) with
    | Some c when (not (Row.is_tombstone c)) && Lsn.(c.Row.lsn <= fence) -> (
      match c.Row.value with
      | Some payload -> (
        match Row.decode_intent payload with Some i -> Some i.Row.i_txn | None -> None)
      | None -> None)
    | _ -> None
  in
  match blocked_by with
  | Some txn -> Snap_blocked txn
  | None -> (
    let visible (c : Row.cell) =
      match c.txn_ts with Some ts -> ts <= fence_ts | None -> Lsn.(c.lsn <= fence)
    in
    let fallback () =
      (* The chain does not cover the fence (deep history only in SSTables,
         the coordinate was never chained, or the chain was reset by a
         crash): every durable version still carries its own classification,
         so the interval rule applies cell by cell — commit-timestamp
         visibility for transactional versions, plain LSN for the rest. *)
      match List.filter visible (all_versions_at t coord) with
      | [] -> Snap_none
      | c :: rest -> Snap_cell (List.fold_left (fun a b -> if t.newer a b then a else b) c rest)
    in
    match Hashtbl.find t.mvcc coord with
    | chain ->
      let len = chain_length chain in
      let rec newest_visible i =
        if i = len then fallback ()
        else
          let c = nth_version chain i in
          if visible c then Snap_cell c else newest_visible (i + 1)
      in
      newest_visible 0
    | exception Not_found -> fallback ())

(* Newest installed version of a base coordinate with its transactional
   classification — the first-committer-wins conflict check's input. *)
let head_info t coord =
  match Hashtbl.find t.mvcc coord with
  | chain ->
    let v = nth_version chain 0 in
    Some (v.Row.lsn, v.Row.txn_ts)
  | exception Not_found -> (
    match fst (lookup t coord) with
    | Some c -> Some (c.Row.lsn, c.Row.txn_ts)
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Intent index accessors.                                              *)

let intent_txn_at t coord = Hashtbl.find_opt t.intent_at coord

let intents_of t txn =
  match Hashtbl.find_opt t.intents txn with
  | Some i -> List.sort (fun (a, _) (b, _) -> Row.compare_coord a b) i.ii_writes
  | None -> []

let live_intents t =
  Hashtbl.fold (fun txn i acc -> (txn, i.ii_anchor, List.map fst i.ii_writes) :: acc) t.intents []
  |> List.sort compare

let in_doubt t ~now ~older_than =
  Hashtbl.fold
    (fun txn i acc ->
      if now - i.ii_time >= older_than then
        let sample =
          match i.ii_writes with ((k, _), _) :: _ -> k | [] -> i.ii_anchor
        in
        (txn, i.ii_anchor, sample) :: acc
      else acc)
    t.intents []
  |> List.sort compare

let read t coord =
  match get t coord with
  | Some cell when not (Row.is_tombstone cell) -> Some cell
  | _ -> None

let current_version t coord =
  match get t coord with Some cell -> cell.Row.version | None -> 0

let scan t ~low ~high ~limit =
  (* Clamp to the range's bounds: shared post-split tables hold the
     sibling's keys too, which must not leak into this range's scans. *)
  let low, high =
    match t.bounds with
    | None -> (low, high)
    | Some (lo, hi) ->
      ((if String.compare low lo < 0 then lo else low),
       if String.compare high hi > 0 then hi else high)
  in
  if limit <= 0 then []
  else begin
    (* Stream the k-way merge of the window and stop as soon as [limit] rows
       are complete — tables outside the key window are never opened, tables
       past the limit never drained. *)
    let sources =
      Iterator.of_seq ~high (Memtable.to_seq_from t.memtable ~low)
      :: List.filter_map
           (fun table ->
             let overlaps =
               match (Sstable.min_key table, Sstable.max_key table) with
               | Some min_key, Some max_key ->
                 String.compare max_key low >= 0 && String.compare min_key high < 0
               | _ -> false
             in
             if overlaps then Some (Iterator.of_sstable ~low ~high table)
             else begin
               t.sstables_skipped <- t.sstables_skipped + 1;
               None
             end)
           t.sstables
    in
    let it = Iterator.merge ~newer:t.newer sources in
    (* Rows accumulate newest-key-last with columns reversed; tombstones
       contribute nothing and fully tombstoned rows never start a row, so
       they do not count toward [limit]. *)
    let finalize rows = List.rev_map (fun (k, cols) -> (k, List.rev cols)) rows in
    let rec go rows nrows =
      match Iterator.next it with
      | None -> finalize rows
      | Some ((key, col), cell) ->
        (* System columns (intents, decision records) never surface in user
           scans. *)
        if Row.is_tombstone cell || Row.is_system_col col then go rows nrows
        else begin
          match rows with
          | (k, cols) :: rest when String.equal k key ->
            go ((k, (col, cell) :: cols) :: rest) nrows
          | _ ->
            if nrows >= limit then finalize rows
            else go ((key, [ (col, cell) ]) :: rows) (nrows + 1)
        end
    in
    go [] 0
  end

(* The MVCC chains, intent index and decision table are volatile; recovery
   rebuilds them (chains from the replayed log suffix, intents from the
   durable heads, decisions from the checkpoint and the log tail). *)
let reset_txn_state t =
  Hashtbl.reset t.mvcc;
  Hashtbl.reset t.intents;
  Hashtbl.reset t.intent_at;
  t.decisions <- Log_record.Decisions.empty;
  t.decided_upto <- Lsn.zero

let crash t =
  t.memtable <- Memtable.create ();
  (* [flushed_upto] is volatile bookkeeping: a crash can land after the
     memtable flush but before the checkpoint record is durable, in which
     case recovery must rederive the flush horizon from stable storage. The
     row cache is volatile too. *)
  t.flushed_upto <- Lsn.zero;
  t.flushed_decisions <- None;
  t.logged_bytes <- 0;
  reset_txn_state t;
  clear_cache t

let wipe t =
  crash t;
  t.sstables <- [];
  t.flushed_upto <- Lsn.zero;
  t.inherited_upto <- Lsn.zero;
  t.inherited_decisions <- Log_record.Decisions.empty;
  Skipped_lsns.clear t.skipped

(* Rebuild the intent index from durable state: the newest resolution of
   every intent coordinate across memtable and SSTables. A live (untombstoned)
   head means the transaction is still unresolved here — exactly the
   in-doubt set presumed-abort recovery must chase. Only the intent cells
   of the memtable and the tables that hold any (live or tombstone) are
   merged: a table without one cannot decide an intent coordinate's
   newest resolution. *)
let rebuild_intents t =
  Hashtbl.reset t.intents;
  Hashtbl.reset t.intent_at;
  let it =
    Iterator.merge ~newer:t.newer
      (Iterator.of_sorted_list
         (List.filter
            (fun ((_, col), _) -> Row.is_intent_col col)
            (Memtable.to_sorted_list t.memtable))
      :: List.filter_map
           (fun table -> if Sstable.has_intents table then Some (Iterator.of_sstable table) else None)
           t.sstables)
  in
  let rec go () =
    match Iterator.next it with
    | None -> ()
    | Some (((key, col) as coord), cell) ->
      if in_bounds t key && Row.is_intent_col col && not (Row.is_tombstone cell) then
        track_system_cell t coord cell;
      go ()
  in
  go ()

(* Replay the cohort's durable writes in (flushed_upto, upto], skipping the
   LSNs [skipped] names, into a fresh memtable, MVCC chains and intent
   index. The log is streamed and the memtable staged: each cell costs a
   hash probe, and the sorted memtable is built once per coordinate. *)
let replay t ~upto ~skipped =
  let stage = Memtable.staged ~newer:t.newer () in
  let sink = Replay stage in
  Wal.iter_durable_writes_in t.wal ~cohort:t.cohort ~above:t.flushed_upto ~upto
    (fun lsn op timestamp _ ->
      t.logged_bytes <- t.logged_bytes + Log_record.write_bytes op;
      if not (skipped lsn) then
        List.iter
          (fun (coord, cell) -> ingest_cell t sink coord cell)
          (Log_record.cells_of_write op ~lsn ~timestamp));
  t.memtable <- Memtable.of_staged stage;
  rebuild_intents t

(* Drop the volatile state a replay rebuilds. SSTables survive the crash and
   hold everything through the checkpoint, or through a split child's
   [inherited_upto] (its own log only starts after the split). The decision
   table restarts from the newest durable checkpoint's, or from the split
   child's inheritance before its first one; without a crash, from the
   table of the last flush, whose checkpoint may still be in flight. *)
let reset_for_replay t =
  let flushed = t.flushed_decisions in
  t.memtable <- Memtable.create ();
  t.logged_bytes <- 0;
  clear_cache t;
  reset_txn_state t;
  t.decisions <-
    (match flushed with
    | Some d -> d
    | None -> (
      match Wal.last_checkpoint_decisions t.wal ~cohort:t.cohort with
      | Some d -> d
      | None -> t.inherited_decisions));
  let checkpoint = Wal.last_checkpoint t.wal ~cohort:t.cohort in
  t.flushed_upto <- Lsn.max t.flushed_upto (Lsn.max checkpoint t.inherited_upto)

let recover t =
  reset_for_replay t;
  (* A flushed write is definitionally committed (only committed writes
     reach the memtable, §5), so f.cmt is at least the checkpoint even when
     older commit markers were rolled over with the log. *)
  let cmt = Lsn.max t.flushed_upto (Wal.last_commit_marker t.wal ~cohort:t.cohort) in
  let lst = Lsn.max cmt (Wal.last_write_lsn t.wal ~cohort:t.cohort) in
  replay t ~upto:cmt ~skipped:(Skipped_lsns.ascending_mem t.skipped ~from:t.flushed_upto);
  (cmt, lst)

let recover_all t =
  reset_for_replay t;
  let lst = Wal.last_write_lsn t.wal ~cohort:t.cohort in
  replay t ~upto:lst ~skipped:(fun _ -> false);
  lst

let all_cells t =
  Iterator.to_list
    (Iterator.merge ~newer:t.newer
       (Iterator.of_sorted_list (Memtable.to_sorted_list t.memtable)
       :: Iterator.of_sorted_list (Log_record.Decisions.bindings t.decisions)
       :: List.map (fun table -> Iterator.of_sstable table) t.sstables))
  |> List.filter (fun ((key, _), _) -> in_bounds t key)

(* Every retained MVCC version *behind* each coordinate's newest — the chain
   tails. A migration's bulk round ships these alongside {!all_cells} so the
   joiner can answer interval snapshot reads whose timestamp predates a
   coordinate's newest version, instead of silently serving something
   older still. *)
let chain_history_cells t =
  Hashtbl.fold
    (fun coord chain acc ->
      let len = chain_length chain in
      let rec transactional i =
        i < len && ((nth_version chain i).Row.txn_ts <> None || transactional (i + 1))
      in
      (* Only chains a committed transaction ever touched: interval reads
         classify plain-only chains by LSN, and skipping them keeps migration
         payloads byte-identical for non-transactional runs. Each tail is
         emitted oldest first. *)
      if len < 2 || not (transactional 0) then acc
      else
        let rec tail i acc =
          if i = len then acc else tail (i + 1) ((coord, nth_version chain i) :: acc)
        in
        tail 1 acc)
    t.mvcc []

let committed_cells_in t ~above ~upto =
  if Lsn.(upto <= above) then []
  else begin
    let from_log = Wal.durable_writes_in t.wal ~cohort:t.cohort ~above ~upto in
    let log_floor = Wal.min_available_write_lsn t.wal ~cohort:t.cohort in
    let log_covers =
      match log_floor with
      | Some floor -> Lsn.(floor <= Lsn.next above) || Lsn.(t.flushed_upto <= above)
      | None -> Lsn.(t.flushed_upto <= above)
    in
    let module Coord_map = Map.Make (struct
      type t = Row.coord

      let compare = Row.compare_coord
    end) in
    (* Per coordinate: every version in the window, in encounter order,
       deduplicated by LSN (the log and SSTable sources can overlap). *)
    let acc = ref Coord_map.empty in
    let consider ((key, _) as coord) (cell : Row.cell) =
      if in_bounds t key then begin
        let prev =
          match Coord_map.find_opt coord !acc with Some l -> l | None -> []
        in
        if not (List.exists (fun (c : Row.cell) -> Lsn.equal c.lsn cell.Row.lsn) prev)
        then acc := Coord_map.add coord (cell :: prev) !acc
      end
    in
    if not log_covers then begin
      (* The log was rolled over below [above]: pull the missing range out of
         SSTables tagged with an overlapping LSN range (§6.1), and the
         decisions out of the decision table. *)
      t.served_from_sstables <- t.served_from_sstables + 1;
      List.iter
        (fun table ->
          if Lsn.(Sstable.max_lsn table > above) then
            List.iter (fun (coord, cell) -> consider coord cell)
              (Sstable.cells_with_lsn_in table ~above ~upto))
        t.sstables;
      Log_record.Decisions.iter
        (fun coord (cell : Row.cell) ->
          if Lsn.(cell.lsn > above && cell.lsn <= upto) then consider coord cell)
        t.decisions
    end;
    (* A record this replica truncated logically (§6.1.1) never committed,
       though it may sit below cmt; like local replay, skip it. *)
    let skipped = Skipped_lsns.ascending_mem t.skipped ~from:above in
    List.iter
      (fun (lsn, op, timestamp, _) ->
        if not (skipped lsn) then
          List.iter
            (fun (coord, cell) -> consider coord cell)
            (Log_record.cells_of_write op ~lsn ~timestamp))
      from_log;
    (* Coordinates only touched by plain writes collapse to the newest cell —
       the historical wire format, so purely non-transactional runs ship
       byte-identical payloads. A coordinate with any transactionally
       installed version in the window keeps every version: the receiver
       rebuilds its MVCC chain from these cells, and a missing intermediate
       version would turn a later interval snapshot read (commit timestamp
       between two shipped versions) into a silent stale read. *)
    Coord_map.bindings !acc
    |> List.concat_map (fun (coord, rev_cells) ->
           let cells = List.rev rev_cells in
           if List.exists (fun (c : Row.cell) -> c.Row.txn_ts <> None) cells then
             List.map (fun c -> (coord, c)) cells
           else
             match
               List.fold_left
                 (fun best c ->
                   match best with Some b when t.newer b c -> best | _ -> Some c)
                 None cells
             with
             | Some c -> [ (coord, c) ]
             | None -> [])
    |> List.sort (fun (_, (a : Row.cell)) (_, (b : Row.cell)) -> Lsn.compare a.lsn b.lsn)
  end

let durable_write_lsns_in t ~above ~upto =
  let acc = ref [] in
  Wal.iter_durable_writes_in t.wal ~cohort:t.cohort ~above ~upto (fun lsn _ _ _ ->
      acc := lsn :: !acc);
  List.rev !acc

(* Fold an LSN-sorted shipped-cell list into ONE install op per LSN. The
   WAL's LSN index treats a second record at an existing LSN as an
   idempotent re-force and keeps the first record's op, so appending two
   [Install_cell] records at one LSN (e.g. a Txn_resolve's data cell plus
   its intent tombstone) would silently drop all but the first cell from
   crash-recovery replay. Each cell goes in verbatim: reconstructing a
   Put/Delete would drop its transactional commit-timestamp classification
   ([Row.cell.txn_ts]), and the receiver's snapshot reads could then expose
   half a transaction. *)
let install_ops_by_lsn (cells : (Row.coord * Row.cell) list) =
  let groups =
    List.fold_left
      (fun acc ((_, (cell : Row.cell)) as item) ->
        match acc with
        | (lsn, items) :: rest when Lsn.equal lsn cell.lsn -> (lsn, item :: items) :: rest
        | _ -> (cell.Row.lsn, [ item ]) :: acc)
      [] cells
  in
  let op_of_cell (coord, cell) = Log_record.Install_cell { coord; cell } in
  List.rev_map
    (fun (lsn, rev_items) ->
      let items = List.rev rev_items in
      let timestamp = match items with (_, (c : Row.cell)) :: _ -> c.timestamp | [] -> 0 in
      let op =
        match items with
        | [ item ] -> op_of_cell item
        | _ -> Log_record.Batch (List.map op_of_cell items)
      in
      (lsn, timestamp, op))
    groups

let install_cells t ~own cells =
  List.iter
    (fun (lsn, timestamp, op) ->
      if not (List.exists (Lsn.equal lsn) own) then
        Wal.append t.wal (Log_record.write ~cohort:t.cohort ~lsn ~timestamp op);
      apply t ~lsn ~timestamp op)
    (install_ops_by_lsn cells)

(* ------------------------------------------------------------------ *)
(* Range split (§10): both children serve before any data is rewritten.  *)

let split_point t =
  (* Median distinct key of the live key population — tombstoned rows still
     occupy key space, so they count. *)
  let keys =
    all_cells t
    |> List.fold_left
         (fun acc ((key, _), _) ->
           match acc with k :: _ when String.equal k key -> acc | _ -> key :: acc)
         []
    |> List.rev
  in
  let n = List.length keys in
  if n < 2 then None
  else
    let median = List.nth keys (n / 2) in
    (* The split point must lie strictly inside the range. *)
    if String.equal median (List.hd keys) then None else Some median

let split_child parent ~cohort ~lo ~hi =
  (* The child shares the parent's immutable SSTables — no data is copied or
     rewritten; out-of-bounds cells are dropped lazily by compaction. The
     parent's memtable must already be flushed (the split protocol flushes
     before logging the split record), so the tables hold everything. *)
  let in_child key = String.compare lo key <= 0 && String.compare key hi < 0 in
  let decisions =
    Log_record.Decisions.filter (fun (key, _) _ -> in_child key) parent.decisions
  in
  let inherited =
    List.fold_left (fun acc table -> Lsn.max acc (Sstable.max_lsn table)) Lsn.zero
      parent.sstables
  in
  (* The inherited decisions lie at or below the horizon too, so a catch-up
     from below it takes them from the decision table. *)
  let inherited =
    Log_record.Decisions.fold (fun _ (cell : Row.cell) acc -> Lsn.max acc cell.lsn)
      decisions inherited
  in
  let child =
    create ~cohort ~wal:parent.wal ~newer:parent.newer ~flush_bytes:parent.flush_bytes
      ~compaction_fanin:parent.compaction_fanin ~max_sstables:parent.max_sstables
      ~cache_capacity:parent.cache_capacity ~mvcc_depth:parent.mvcc_depth ()
  in
  child.bounds <- Some (lo, hi);
  child.sstables <- parent.sstables;
  child.inherited_upto <- inherited;
  (* The shared tables cover everything through [inherited]; the child's own
     log only starts after the split, so the flush horizon must say so or
     recovery/catch-up would trust a log that cannot cover the prefix. *)
  child.flushed_upto <- inherited;
  (* Unresolved intents in the child's half of the key space ride the shared
     tables; the child must know about them to block snapshot readers and
     answer the in-doubt sweep. *)
  rebuild_intents child;
  (* The decisions whose anchor the child owns are its inheritance: the
     parent's checkpoint holds them, the child's own log does not. *)
  child.decisions <- decisions;
  child.flushed_decisions <- Some decisions;
  child.inherited_decisions <- decisions;
  child
