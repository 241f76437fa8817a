(* The store's apply and replay path against straightforward references.

   - The MVCC chain is a ring of each coordinate's newest [mvcc_depth]
     versions. The reference below is the list chain it replaced (prepend,
     replace the head on a re-apply, insert below the head in descending-LSN
     position, truncate to the cap), kept here verbatim. A depth of 3 makes
     the ring wrap within a few pushes; a depth of 9 makes it grow from four
     slots to eight to nine before it wraps; a depth of 1 never leaves the
     one-version box.
   - Recovery streams the log and stages the memtable. The reference is a
     per-cell replay: every durable, unskipped record's cells [Memtable.put]
     one at a time into an empty memtable. *)

module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Memtable = Storage.Memtable
module Log_record = Storage.Log_record
module Wal = Storage.Wal
module Skipped_lsns = Storage.Skipped_lsns

let lsn seq = Lsn.make ~epoch:1 ~seq

(* --- reference list chain ------------------------------------------- *)

let ref_push depth chain (cell : Row.cell) =
  let chain =
    match chain with
    | (head : Row.cell) :: rest when Lsn.equal head.lsn cell.lsn -> cell :: rest
    | head :: _ when Lsn.(cell.lsn < head.lsn) ->
      if List.exists (fun (v : Row.cell) -> Lsn.equal v.lsn cell.lsn) chain then chain
      else
        let rec ins = function
          | (v : Row.cell) :: tl when Lsn.(v.lsn > cell.lsn) -> v :: ins tl
          | tl -> cell :: tl
        in
        ins chain
    | _ -> cell :: chain
  in
  if List.length chain > depth then List.filteri (fun i _ -> i < depth) chain else chain

let visible ~fence ~fence_ts (c : Row.cell) =
  match c.txn_ts with Some ts -> ts <= fence_ts | None -> Lsn.(c.lsn <= fence)

(* The interval rule over the chain, falling back to the memtable's cell
   (the stores under test never flush, so the memtable is all there is). *)
let ref_snapshot chain mem ~fence ~fence_ts =
  match List.find_opt (visible ~fence ~fence_ts) chain with
  | Some c -> Store.Snap_cell c
  | None -> (
    match mem with
    | Some c when visible ~fence ~fence_ts c -> Store.Snap_cell c
    | _ -> Store.Snap_none)

let ref_head_info chain mem =
  match (chain, mem) with
  | (v : Row.cell) :: _, _ | [], Some v -> Some (v.lsn, v.txn_ts)
  | [], None -> None

(* Same table size and the same [replace] on every push as the store's own
   chain table, so both fold in the same order. *)
let ref_chain_history chains =
  Hashtbl.fold
    (fun coord chain acc ->
      match chain with
      | [] | [ _ ] -> acc
      | _ :: tail when List.exists (fun (v : Row.cell) -> v.txn_ts <> None) chain ->
        List.fold_left (fun acc v -> (coord, v) :: acc) acc tail
      | _ -> acc)
    chains []

let same_snap a b =
  match (a, b) with
  | Store.Snap_cell x, Store.Snap_cell y -> x = y
  | Snap_none, Snap_none -> true
  | Snap_blocked x, Snap_blocked y -> String.equal x y
  | _ -> false

let pp_snap = function
  | Store.Snap_cell c -> Format.asprintf "cell %a" Row.pp_cell c
  | Snap_none -> "none"
  | Snap_blocked txn -> "blocked " ^ txn

let make_wal () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  (engine, Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) ())

(* --- ring vs list chain ---------------------------------------------- *)

type push_kind =
  | In_order of int  (** head LSN + 1..3 *)
  | Reapply_head
  | Below of int  (** some LSN below the head, present or not *)
  | Dup_below of int  (** the LSN of a retained version below the head *)

type push = { p_coord : int; p_kind : push_kind; p_txn : int option; p_tomb : bool }

let ring_coords = 3
let coord_of i = (Printf.sprintf "k%d" i, "c")

let push_gen =
  QCheck.Gen.(
    map4
      (fun p_coord p_kind p_txn p_tomb -> { p_coord; p_kind; p_txn; p_tomb })
      (int_bound (ring_coords - 1))
      (frequency
         [
           (6, map (fun d -> In_order d) (int_range 1 3));
           (2, return Reapply_head);
           (2, map (fun k -> Below k) small_nat);
           (2, map (fun k -> Dup_below k) small_nat);
         ])
      (frequency [ (2, return None); (1, map Option.some (int_range (-15) 15)) ])
      (frequency [ (5, return false); (1, return true) ]))

let pp_push p =
  Printf.sprintf "%d:%s%s%s" p.p_coord
    (match p.p_kind with
    | In_order d -> Printf.sprintf "in+%d" d
    | Reapply_head -> "reapply"
    | Below k -> Printf.sprintf "below%d" k
    | Dup_below k -> Printf.sprintf "dup%d" k)
    (match p.p_txn with Some j -> Printf.sprintf "/txn%+d" j | None -> "")
    (if p.p_tomb then "/tomb" else "")

let arb_pushes =
  QCheck.make
    ~print:(fun ps -> String.concat "; " (List.map pp_push ps))
    QCheck.Gen.(list_size (int_range 1 80) push_gen)

let prop_ring_matches_list_chain ~depth =
  QCheck.Test.make
    ~name:(Printf.sprintf "mvcc ring depth %d == list chain (snapshot, head, history order)" depth)
    ~count:300 arb_pushes (fun pushes ->
      let _, wal = make_wal () in
      let store = Store.create ~cohort:0 ~wal ~mvcc_depth:depth () in
      let chains = Hashtbl.create 256 in
      let mem = Hashtbl.create 16 in
      let chain_of coord = Option.value ~default:[] (Hashtbl.find_opt chains coord) in
      let max_seq = ref 0 in
      let check coord =
        let chain = chain_of coord and m = Hashtbl.find_opt mem coord in
        let fail fmt = QCheck.Test.fail_reportf fmt in
        if Store.head_info store coord <> ref_head_info chain m then
          fail "head_info differs at %s" (fst coord);
        for seq = 0 to !max_seq + 1 do
          List.iter
            (fun fence_ts ->
              let fence = lsn seq in
              let got = Store.snapshot_get store coord ~fence ~fence_ts in
              let want = ref_snapshot chain m ~fence ~fence_ts in
              if not (same_snap got want) then
                fail "snapshot_get %s fence=%d fence_ts=%d: ring %s, list %s" (fst coord) seq
                  fence_ts (pp_snap got) (pp_snap want))
            [ (seq * 10) - 5; seq * 10; (seq * 10) + 5 ]
        done
      in
      List.iteri
        (fun step p ->
          let coord = coord_of p.p_coord in
          let chain = chain_of coord in
          let head = match chain with (c : Row.cell) :: _ -> c.lsn.Lsn.seq | [] -> 0 in
          let seq =
            match (p.p_kind, chain) with
            | In_order d, [] -> d
            | _, [] -> 1
            | In_order d, _ -> head + d
            | Reapply_head, _ -> head
            | Below k, _ -> if head > 1 then 1 + (k mod (head - 1)) else head
            | Dup_below _, [ _ ] -> head
            | Dup_below k, _ :: tail -> (List.nth tail (k mod List.length tail)).lsn.Lsn.seq
          in
          max_seq := max !max_seq seq;
          let cell =
            {
              Row.value = (if p.p_tomb then None else Some (string_of_int step));
              version = step + 1;
              lsn = lsn seq;
              timestamp = step;
              txn_ts = Option.map (fun j -> (seq * 10) + j) p.p_txn;
            }
          in
          Store.apply store ~lsn:(lsn seq) ~timestamp:step
            (Log_record.Install_cell { coord; cell });
          Hashtbl.replace chains coord (ref_push depth chain cell);
          (match Hashtbl.find_opt mem coord with
          | Some (old : Row.cell) when Row.newer_by_lsn old cell -> ()
          | _ -> Hashtbl.replace mem coord cell);
          check coord;
          if Store.chain_history_cells store <> ref_chain_history chains then
            QCheck.Test.fail_reportf "chain_history_cells differs after step %d" step)
        pushes;
      List.iter (fun i -> check (coord_of i)) (List.init ring_coords Fun.id);
      true)

(* --- a split child keeps the parent's chain depth --------------------- *)

(* [Store.split_child] must carry every [create] option over, [mvcc_depth]
   included: a child that silently fell back to the default depth would
   answer snapshot reads the parent's own replica could not. *)
let test_split_child_keeps_depth () =
  let _, wal = make_wal () in
  let parent = Store.create ~cohort:0 ~wal ~mvcc_depth:1 () in
  Store.flush parent ~replies:[];
  let child = Store.split_child parent ~cohort:1 ~lo:"k" ~hi:"l" in
  let coord = ("k1", "c") in
  List.iter
    (fun (seq, value) ->
      let op = Log_record.Put { key = fst coord; col = snd coord; value; version = seq } in
      Store.apply parent ~lsn:(lsn seq) ~timestamp:seq op;
      Store.apply child ~lsn:(lsn seq) ~timestamp:seq op)
    [ (2, "a"); (3, "b"); (4, "c") ];
  for seq = 1 to 4 do
    let fence = lsn seq and fence_ts = seq in
    let want = Store.snapshot_get parent coord ~fence ~fence_ts in
    let got = Store.snapshot_get child coord ~fence ~fence_ts in
    if not (same_snap got want) then
      Alcotest.failf "fence %d: parent %s, child %s" seq (pp_snap want) (pp_snap got)
  done

(* --- staged recovery vs per-cell replay ------------------------------ *)

type record =
  | R_put of int * int  (** key, value *)
  | R_delete of int
  | R_prepare of int * int list  (** txn, keys *)
  | R_resolve of int * bool * int list  (** txn, commit, keys *)
  | R_install of int * int option  (** key, commit-timestamp offset *)

let rec_keys = 4
let rkey k = Printf.sprintf "r%d" k
let txn_id j = Printf.sprintf "t%d" j

let record_gen =
  QCheck.Gen.(
    let key = int_bound (rec_keys - 1) in
    let keys = list_size (int_range 1 2) key in
    frequency
      [
        (5, map2 (fun k v -> R_put (k, v)) key small_nat);
        (2, map (fun k -> R_delete k) key);
        (2, map2 (fun j ks -> R_prepare (j, List.sort_uniq compare ks)) (int_bound 3) keys);
        ( 2,
          map3
            (fun j c ks -> R_resolve (j, c, List.sort_uniq compare ks))
            (int_bound 3) bool keys );
        (2, map2 (fun k t -> R_install (k, t)) key (opt (int_range (-20) 20)));
      ])

type log_case = {
  records : (record * int) list;  (** with the record's timestamp *)
  skipped : int list;  (** seqs *)
  commit_at : int;
  checkpoint_at : int option;
}

let op_of seq = function
  | R_put (k, v) ->
    Log_record.Put { key = rkey k; col = "c"; value = string_of_int v; version = seq }
  | R_delete k -> Log_record.Delete { key = rkey k; col = "c"; version = seq }
  | R_prepare (j, ks) ->
    Log_record.Txn_prepare
      {
        txn = txn_id j;
        anchor = rkey 0;
        fence = lsn (seq - 1);
        writes = List.map (fun k -> (rkey k, "c", Some (string_of_int seq))) ks;
      }
  | R_resolve (j, commit, ks) ->
    Log_record.Txn_resolve
      {
        txn = txn_id j;
        commit;
        ts = seq * 10;
        writes = List.map (fun k -> (rkey k, "c", Some (string_of_int seq), seq)) ks;
      }
  | R_install (k, t) ->
    Log_record.Install_cell
      {
        coord = (rkey k, "c");
        cell =
          {
            Row.value = Some (string_of_int seq);
            version = seq;
            lsn = lsn seq;
            timestamp = seq;
            txn_ts = Option.map (fun d -> (seq * 10) + d) t;
          };
      }

let pp_record = function
  | R_put (k, v) -> Printf.sprintf "put %d=%d" k v
  | R_delete k -> Printf.sprintf "del %d" k
  | R_prepare (j, ks) ->
    Printf.sprintf "prep t%d [%s]" j (String.concat "," (List.map string_of_int ks))
  | R_resolve (j, c, ks) ->
    Printf.sprintf "%s t%d [%s]" (if c then "commit" else "abort") j
      (String.concat "," (List.map string_of_int ks))
  | R_install (k, t) ->
    Printf.sprintf "install %d%s" k (match t with Some d -> Printf.sprintf "/txn%+d" d | None -> "")

let arb_log =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "records=[%s] skipped=[%s] commit_at=%d checkpoint_at=%s"
        (String.concat "; "
           (List.mapi
              (fun i (r, ts) -> Printf.sprintf "%d@%d:%s" (i + 1) ts (pp_record r))
              c.records))
        (String.concat "," (List.map string_of_int c.skipped))
        c.commit_at
        (match c.checkpoint_at with Some s -> string_of_int s | None -> "-"))
    QCheck.Gen.(
      list_size (int_range 1 50) (pair record_gen (int_bound 30)) >>= fun records ->
      let n = List.length records in
      map3
        (fun skipped commit_at checkpoint_at ->
          { records; skipped = List.sort_uniq compare skipped; commit_at; checkpoint_at })
        (list_size (int_bound 6) (int_range 1 n))
        (int_range 0 n)
        (opt (int_range 1 n)))

let normalize_intents l =
  List.map (fun (txn, anchor, coords) -> (txn, anchor, List.sort compare coords)) l

(* The live intents a per-cell replay leaves: the untombstoned intent cells
   of the memtable. *)
let ref_live_intents mem =
  List.filter_map
    (fun ((key, col), (cell : Row.cell)) ->
      match cell.value with
      | Some payload when Row.is_intent_col col -> (
        match Row.decode_intent payload with
        | Some i -> Some (i.Row.i_txn, i.i_anchor, (key, Row.base_of_intent_col col))
        | None -> None)
      | _ -> None)
    (Memtable.to_sorted_list mem)
  |> List.fold_left
       (fun acc (txn, anchor, coord) ->
         match List.assoc_opt txn acc with
         | Some (a, coords) -> (txn, (a, coord :: coords)) :: List.remove_assoc txn acc
         | None -> (txn, (anchor, [ coord ])) :: acc)
       []
  |> List.map (fun (txn, (anchor, coords)) -> (txn, anchor, coords))
  |> normalize_intents |> List.sort compare

let check_recovery ~newer ~all case =
  let engine, wal = make_wal () in
  let store = Store.create ~cohort:0 ~wal ~newer () in
  List.iteri
    (fun i (r, timestamp) ->
      let seq = i + 1 in
      Wal.append wal (Log_record.write ~cohort:0 ~lsn:(lsn seq) ~timestamp (op_of seq r));
      if seq = case.commit_at then Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn seq));
      if Some seq = case.checkpoint_at then
        Wal.append wal
          (Log_record.checkpoint ~cohort:0 ~replies:[] ~decisions:Log_record.Decisions.empty
             (lsn seq)))
    case.records;
  Wal.force wal (fun () -> ());
  Sim.Engine.run engine;
  Skipped_lsns.add (Store.skipped store) (List.map lsn case.skipped);
  let upto = if all then Store.recover_all store else fst (Store.recover store) in
  let above = Store.flushed_upto store in
  (* The reference: per-cell puts and list-chain pushes, record by record. *)
  let mem = Memtable.create () in
  let chains = Hashtbl.create 16 in
  List.iter
    (fun (seq, op, timestamp, _) ->
      if all || not (Skipped_lsns.mem (Store.skipped store) seq) then
        List.iter
          (fun (((_, col) as coord), cell) ->
            Memtable.put mem ~newer coord cell;
            if not (Row.is_system_col col) then
              Hashtbl.replace chains coord
                (ref_push 64 (Option.value ~default:[] (Hashtbl.find_opt chains coord)) cell))
          (Log_record.cells_of_write op ~lsn:seq ~timestamp))
    (Wal.durable_writes_in wal ~cohort:0 ~above ~upto);
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if Store.all_cells store <> Memtable.to_sorted_list mem then fail "memtable bindings differ";
  if Store.memtable_bytes store <> Memtable.approx_bytes mem then
    fail "approx_bytes: staged %d, per-cell %d" (Store.memtable_bytes store)
      (Memtable.approx_bytes mem);
  if normalize_intents (Store.live_intents store) <> ref_live_intents mem then
    fail "live intents differ";
  List.iter
    (fun k ->
      let coord = (rkey k, "c") in
      let chain = Option.value ~default:[] (Hashtbl.find_opt chains coord) in
      let m = Memtable.get mem coord in
      if Store.head_info store coord <> ref_head_info chain m then
        fail "head_info differs at %s" (rkey k);
      for seq = 0 to List.length case.records + 1 do
        let fence = lsn seq and fence_ts = seq * 10 in
        (* A live intent at or below the fence blocks the read in both. *)
        match Store.snapshot_get store coord ~fence ~fence_ts with
        | Store.Snap_blocked _ -> ()
        | got ->
          let want = ref_snapshot chain m ~fence ~fence_ts in
          if not (same_snap got want) then
            fail "snapshot_get %s fence=%d: staged %s, per-cell %s" (rkey k) seq (pp_snap got)
              (pp_snap want)
      done)
    (List.init rec_keys Fun.id);
  (* [max_lsn] is what a flush checkpoints. *)
  Store.flush store ~replies:[];
  let want =
    if Memtable.is_empty mem then above else Lsn.max above (Memtable.max_lsn mem)
  in
  if not (Lsn.equal (Store.flushed_upto store) want) then
    fail "max_lsn: flushed through %s, per-cell %s" (Lsn.to_string (Store.flushed_upto store))
      (Lsn.to_string want);
  true

let prop_recovery name ~newer ~all =
  QCheck.Test.make ~name ~count:200 arb_log (fun case -> check_recovery ~newer ~all case)

(* The staged memtable on its own, on arbitrary (not LSN-ordered) puts. *)
let prop_staged_memtable =
  QCheck.Test.make ~name:"memtable: staged load == per-cell puts (both orders)" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (quad (int_bound 5) (int_bound 40) (int_bound 8) (option small_nat)))
    (fun puts ->
      List.for_all
        (fun newer ->
          let mem = Memtable.create () and stage = Memtable.staged ?newer () in
          List.iter
            (fun (k, seq, timestamp, value) ->
              let coord = (rkey k, "c") in
              let cell =
                {
                  Row.value = Option.map string_of_int value;
                  version = seq;
                  lsn = lsn seq;
                  timestamp;
                  txn_ts = None;
                }
              in
              Memtable.put mem ?newer coord cell;
              Memtable.stage stage coord cell)
            puts;
          let loaded = Memtable.of_staged stage in
          Memtable.to_sorted_list loaded = Memtable.to_sorted_list mem
          && Memtable.approx_bytes loaded = Memtable.approx_bytes mem
          && Lsn.equal (Memtable.max_lsn loaded) (Memtable.max_lsn mem))
        [ None; Some Row.newer_by_lsn; Some Row.newer_by_timestamp ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ring_matches_list_chain ~depth:1;
      prop_ring_matches_list_chain ~depth:3;
      prop_ring_matches_list_chain ~depth:9;
      prop_staged_memtable;
      prop_recovery "recover: staged == per-cell replay (LSN order)" ~newer:Row.newer_by_lsn
        ~all:false;
      prop_recovery "recover: staged == per-cell replay (timestamp order)"
        ~newer:Row.newer_by_timestamp ~all:false;
      prop_recovery "recover_all: staged == per-cell replay (LSN order)" ~newer:Row.newer_by_lsn
        ~all:true;
      prop_recovery "recover_all: staged == per-cell replay (timestamp order)"
        ~newer:Row.newer_by_timestamp ~all:true;
    ]
  @ [
      Alcotest.test_case "split child keeps the parent's mvcc depth" `Quick
        test_split_child_keeps_depth;
    ]
