type op =
  | Put of { key : Row.key; col : Row.column; value : string; version : int }
  | Delete of { key : Row.key; col : Row.column; version : int }
  | Batch of op list
  | Cohort_change of { add : int option; remove : int option }
  | Split of { at : Row.key; new_range : int }
  | Txn_prepare of {
      txn : string;
      anchor : Row.key;
      fence : Lsn.t;
      writes : (Row.key * Row.column * string option) list;
    }
  | Txn_decision of { txn : string; anchor : Row.key; commit : bool; ts : int }
  | Txn_resolve of {
      txn : string;
      commit : bool;
      ts : int;
      writes : (Row.key * Row.column * string option * int) list;
    }
  | Install_cell of { coord : Row.coord; cell : Row.cell }

type origin = { client : int; request_id : int; floor : int }

type outcome =
  | Written of Lsn.t
  | Decided of { commit : bool; ts : int }
  | Version_mismatch of int
  | Txn_conflict
  | Cross_range

type reply_cache = (int * int * (int * outcome) list) list

type entry =
  | Write of { lsn : Lsn.t; op : op; timestamp : int; origin : origin option }
  | Commit_upto of Lsn.t
  | Checkpoint of { upto : Lsn.t; replies : reply_cache }

type t = { cohort : int; entry : entry }

let write ~cohort ~lsn ~timestamp ?origin op =
  { cohort; entry = Write { lsn; op; timestamp; origin } }
let commit_upto ~cohort lsn = { cohort; entry = Commit_upto lsn }
let checkpoint ~cohort ~replies upto = { cohort; entry = Checkpoint { upto; replies } }

let is_meta = function
  | Cohort_change _ | Split _ -> true
  | Put _ | Delete _ | Batch _ | Txn_prepare _ | Txn_decision _ | Txn_resolve _
  | Install_cell _ ->
    false

let rec flatten = function
  | Batch ops -> List.concat_map flatten ops
  | (Put _ | Delete _) as op -> [ op ]
  | Cohort_change _ | Split _ -> []
  | (Txn_prepare _ | Txn_decision _ | Txn_resolve _ | Install_cell _) as op ->
    (* Transaction and install records are atomic units: their cells are
       derived by [cells_of_write], not by flattening into primitive
       writes. *)
    [ op ]

let rec op_coord = function
  | Put { key; col; _ } -> (key, col)
  | Delete { key; col; _ } -> (key, col)
  | Batch [] -> ("", "")
  | Batch (op :: _) -> op_coord op
  | Cohort_change _ | Split _ -> ("", "")
  | Txn_prepare { writes = (key, col, _) :: _; _ } -> (key, Row.intent_col col)
  | Txn_prepare { anchor; _ } -> (anchor, "")
  | Txn_decision { txn; anchor; _ } -> (anchor, Row.decision_col txn)
  | Txn_resolve { writes = (key, col, _, _) :: _; _ } -> (key, col)
  | Txn_resolve _ -> ("", "")
  | Install_cell { coord; _ } -> coord

let cell_of_write op ~lsn ~timestamp : Row.cell =
  match op with
  | Put { value; version; _ } ->
    { value = Some value; version; lsn; timestamp; txn_ts = None }
  | Delete { version; _ } -> { value = None; version; lsn; timestamp; txn_ts = None }
  | Install_cell { cell; _ } -> cell
  | Batch _ | Cohort_change _ | Split _ | Txn_prepare _ | Txn_decision _ | Txn_resolve _ ->
    invalid_arg "Log_record.cell_of_write: not a cell write"

let cells_of_write op ~lsn ~timestamp =
  match op with
  | Txn_prepare { txn; anchor; fence; writes } ->
    (* One intent cell per written coordinate; versions stay 0 — the base
       coordinate's version is assigned at resolve time. *)
    List.map
      (fun (key, col, value) ->
        ( (key, Row.intent_col col),
          {
            Row.value =
              Some
                (Row.encode_intent
                   { Row.i_txn = txn; i_anchor = anchor; i_fence = fence; i_value = value });
            version = 0;
            lsn;
            timestamp;
            txn_ts = None;
          } ))
      writes
  | Txn_decision { txn; anchor; commit; ts } ->
    [
      ( (anchor, Row.decision_col txn),
        {
          Row.value = Some (Row.encode_decision ~commit ~ts);
          version = 0;
          lsn;
          timestamp;
          txn_ts = None;
        } );
    ]
  | Txn_resolve { commit; ts; writes; _ } ->
    (* Concrete final cells are embedded in the record (computed once at the
       leader), so replicas apply deterministically. Committed data cells
       carry the decision timestamp as [txn_ts] — their position in the
       global MVCC timeline — and it doubles as the cell timestamp; intent
       cells are tombstoned either way. *)
    List.concat_map
      (fun (key, col, value, version) ->
        let clear_intent =
          ((key, Row.intent_col col), Row.tombstone ~version:0 ~lsn ~timestamp)
        in
        if commit then
          [
            ((key, col), { Row.value; version; lsn; timestamp = ts; txn_ts = Some ts });
            clear_intent;
          ]
        else [ clear_intent ])
      writes
  | Install_cell { coord; cell } ->
    (* A materialized cell shipped by catch-up or snapshot migration: applied
       and logged verbatim, so [txn_ts] (and everything else) survives the
       trip exactly — including crash-recovery replay on the receiver. *)
    [ (coord, cell) ]
  | _ -> List.map (fun o -> (op_coord o, cell_of_write o ~lsn ~timestamp)) (flatten op)

let rec cell_bytes op =
  let value_bytes = function Some v -> String.length v | None -> 0 in
  match op with
  | Put { key; col; value; _ } -> String.length key + String.length col + String.length value
  | Delete { key; col; _ } -> String.length key + String.length col
  | Batch ops -> List.fold_left (fun a op -> a + cell_bytes op) 0 ops
  | Cohort_change _ | Split _ -> 0
  | Txn_prepare { txn; anchor; fence; writes } ->
    List.fold_left
      (fun a (key, col, value) ->
        let intent = { Row.i_txn = txn; i_anchor = anchor; i_fence = fence; i_value = value } in
        a + String.length key + Row.system_prefix_length + String.length col
        + Row.intent_length intent)
      0 writes
  | Txn_decision { txn; anchor; ts; _ } ->
    String.length anchor + Row.system_prefix_length + String.length txn
    + Row.decision_length ~ts
  | Txn_resolve { commit; writes; _ } ->
    List.fold_left
      (fun a (key, col, value, _) ->
        let intent = String.length key + Row.system_prefix_length + String.length col in
        a + intent
        + if commit then String.length key + String.length col + value_bytes value else 0)
      0 writes
  | Install_cell { coord = key, col; cell } ->
    String.length key + String.length col + value_bytes cell.Row.value

(* Payload bytes of one primitive write; [Batch] recurses, so a record is
   sized without flattening it. *)
let rec payload_bytes = function
  | Put { key; col; value; _ } -> String.length key + String.length col + String.length value
  | Delete { key; col; _ } -> String.length key + String.length col
  | Batch ops -> List.fold_left (fun a op -> a + payload_bytes op) 0 ops
  | Cohort_change _ | Split _ -> 0
  | Txn_prepare { txn; writes; _ } ->
    List.fold_left
      (fun a (k, c, v) ->
        a + String.length k + String.length c
        + match v with Some v -> String.length v | None -> 0)
      (String.length txn + 24)
      writes
  | Txn_decision { txn; anchor; _ } -> String.length txn + String.length anchor + 16
  | Txn_resolve { txn; writes; _ } ->
    List.fold_left
      (fun a (k, c, v, _) ->
        a + String.length k + String.length c
        + (match v with Some v -> String.length v | None -> 0)
        + 8)
      (String.length txn + 16)
      writes
  | Install_cell { coord = key, col; cell } ->
    String.length key + String.length col
    + (match cell.Row.value with Some v -> String.length v | None -> 0)
    + 16

let write_bytes op = 24 + (if is_meta op then 8 else 0) + payload_bytes op

(* A checkpoint is modelled at its marker size: the model charges nothing
   for the SSTable write it stands for, nor for the reply cache it holds. *)
let approx_bytes t =
  match t.entry with
  | Write { op; _ } -> write_bytes op
  | Commit_upto _ | Checkpoint _ -> 24

let pp ppf t =
  match t.entry with
  | Write { lsn; op; _ } ->
    let kind, (key, col) =
      match op with
      | Put _ -> ("put", op_coord op)
      | Delete _ -> ("del", op_coord op)
      | Batch ops -> (Printf.sprintf "txn(%d)" (List.length ops), op_coord op)
      | Cohort_change { add; remove } ->
        let show = function Some n -> string_of_int n | None -> "-" in
        (Printf.sprintf "cohort+%s-%s" (show add) (show remove), ("", ""))
      | Split { at; new_range } -> (Printf.sprintf "split@%s->r%d" at new_range, ("", ""))
      | Txn_prepare { txn; writes; _ } ->
        (Printf.sprintf "prepare[%s](%d)" txn (List.length writes), op_coord op)
      | Txn_decision { txn; commit; _ } ->
        (Printf.sprintf "decide[%s]=%s" txn (if commit then "commit" else "abort"), op_coord op)
      | Txn_resolve { txn; commit; writes; _ } ->
        ( Printf.sprintf "resolve[%s]=%s(%d)" txn
            (if commit then "commit" else "abort")
            (List.length writes),
          op_coord op )
      | Install_cell _ -> ("install", op_coord op)
    in
    Format.fprintf ppf "[r%d %a %s %s/%s]" t.cohort Lsn.pp lsn kind key col
  | Commit_upto lsn -> Format.fprintf ppf "[r%d commit<=%a]" t.cohort Lsn.pp lsn
  | Checkpoint { upto; _ } -> Format.fprintf ppf "[r%d ckpt<=%a]" t.cohort Lsn.pp upto
