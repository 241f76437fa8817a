type write_cell =
  Storage.Row.key * Storage.Row.column * string option * int option

type client_op =
  | Get of {
      key : Storage.Row.key;
      col : Storage.Row.column;
      consistent : bool;
      token : Storage.Lsn.t;
    }
  | Multi_get of {
      key : Storage.Row.key;
      cols : Storage.Row.column list;
      consistent : bool;
      token : Storage.Lsn.t;
    }
  | Write of { cells : write_cell list }
  | Scan of {
      start_key : Storage.Row.key;
      end_key : Storage.Row.key;
      limit : int;
      consistent : bool;
      token : Storage.Lsn.t;
    }
  | Fence of { key : Storage.Row.key }
  | Snap_get of {
      key : Storage.Row.key;
      col : Storage.Row.column;
      fence : Storage.Lsn.t;
      fence_ts : int;
    }
  | Txn_prepare_req of {
      txn : string;
      anchor : Storage.Row.key;
      fence : Storage.Lsn.t;
      fence_ts : int;
      writes : (Storage.Row.key * Storage.Row.column * string option) list;
    }
  | Txn_decide_req of { txn : string; anchor : Storage.Row.key; commit : bool }
  | Txn_resolve_req of { txn : string; key : Storage.Row.key; commit : bool; ts : int }

type value_reply = { value : string option; version : int }

type client_reply =
  | Value of value_reply
  | Values of (Storage.Row.column * value_reply) list
  | Rows of {
      rows : (Storage.Row.key * (Storage.Row.column * value_reply) list) list;
      next : Storage.Row.key option;
          (** where the serving range's coverage stopped, when short of the
              requested window — the client resumes its scan there. The
              server's answer, not the client's routing table, decides the
              step, so a scan cannot skip keys a concurrent split moved. *)
    }
  | Written of { lsn : Storage.Lsn.t }
      (** commit LSN of the acked write — the client's read-your-writes token
          for subsequent timeline reads against this cohort *)
  | Version_mismatch of { current : int }
  | Not_leader of { hint : int option }
  | Wrong_range of { hint : int option }
      (** the serving node no longer (or never did) own the key's range —
          the client must refresh its cached routing table; [hint] is the
          likely leader of the owning range under the server's layout *)
  | Unavailable
  | Cross_range
  | Fenced of { lsn : Storage.Lsn.t; ts : int }
      (** snapshot anchor for one range: the leader's applied commit point
          and the capture instant, taken under a valid lease/guard *)
  | Snap_blocked of { txn : string }
      (** the snapshot read hit an unresolved write intent at or below the
          fence; the client retries after the owning txn resolves *)
  | Txn_conflict
      (** prepare refused: first-committer-wins against the snapshot fence,
          a foreign intent, or a pending write on a touched coordinate *)
  | Txn_decided of { committed : bool; ts : int }
      (** the coordinator's durable decision (and its commit timestamp) *)
  | Stale_request
      (** the write's id is below the client's completion floor and its
          outcome is gone: a late duplicate, never executed *)

type t =
  | Request of { client : int; request_id : int; floor : int; op : client_op }
  | Reply of { request_id : int; reply : client_reply }
  | Propose of {
      range : int;
      epoch : int;
      writes :
        (Storage.Lsn.t * Storage.Log_record.op * int * Storage.Log_record.origin option) list;
          (** (lsn, op, timestamp, origin); origin is the issuing request and
              its client's floor when known, carried so followers can answer
              duplicate retries after a leader change *)
      piggyback_cmt : Storage.Lsn.t option;
    }
  | Ack of { range : int; from : int; upto : Storage.Lsn.t }
  | Commit of { range : int; epoch : int; upto : Storage.Lsn.t }
  | Read_guard of { range : int; epoch : int; seq : int }
      (** unleased strong reads: the leader confirms it is still the leader
          by collecting a majority of acks for this guard before answering *)
  | Read_guard_ack of { range : int; from : int; seq : int }
  | Takeover_query of { range : int; epoch : int }
  | Catchup_request of { range : int; from : int; cmt : Storage.Lsn.t }
  | Catchup_data of {
      range : int;
      epoch : int;
      cells : (Storage.Row.coord * Storage.Row.cell) list;
      upto : Storage.Lsn.t;
      replies : Storage.Log_record.reply_cache;
          (** the leader's settled reply cache: (client, floor, outcomes) *)
    }
  | Catchup_done of { range : int; from : int; upto : Storage.Lsn.t }

let reply_of_outcome : Storage.Log_record.outcome -> client_reply = function
  | Written lsn -> Written { lsn }
  | Decided { commit; ts } -> Txn_decided { committed = commit; ts }
  | Version_mismatch current -> Version_mismatch { current }
  | Txn_conflict -> Txn_conflict
  | Cross_range -> Cross_range

let is_write = function
  | Get _ | Multi_get _ | Scan _ | Fence _ | Snap_get _ -> false
  | Write _ | Txn_prepare_req _ | Txn_decide_req _ | Txn_resolve_req _ -> true

let key_of_op = function
  | Get { key; _ } | Multi_get { key; _ } | Fence { key } | Snap_get { key; _ }
  | Txn_resolve_req { key; _ } ->
    key
  | Write { cells } -> ( match cells with (key, _, _, _) :: _ -> key | [] -> "")
  | Txn_prepare_req { writes; anchor; _ } -> (
    match writes with (key, _, _) :: _ -> key | [] -> anchor)
  | Txn_decide_req { anchor; _ } -> anchor
  | Scan { start_key; _ } -> start_key

let size_of_op = function
  | Get { key; col; _ } -> String.length key + String.length col + 16
  | Multi_get { key; cols; _ } ->
    String.length key + List.fold_left (fun a c -> a + String.length c) 16 cols
  | Write { cells } ->
    List.fold_left
      (fun a (k, c, v, e) ->
        a + String.length k + String.length c
        + (match v with Some v -> String.length v | None -> 0)
        + match e with Some _ -> 8 | None -> 0)
      16 cells
  | Scan { start_key; end_key; _ } -> String.length start_key + String.length end_key + 24
  | Fence { key } -> String.length key + 16
  | Snap_get { key; col; _ } -> String.length key + String.length col + 32
  | Txn_prepare_req { txn; anchor; writes; _ } ->
    List.fold_left
      (fun a (k, c, v) ->
        a + String.length k + String.length c
        + (match v with Some v -> String.length v | None -> 0)
        + 8)
      (String.length txn + String.length anchor + 32)
      writes
  | Txn_decide_req { txn; anchor; _ } -> String.length txn + String.length anchor + 24
  | Txn_resolve_req { txn; key; _ } -> String.length txn + String.length key + 32

let size_of_value { value; _ } =
  (match value with Some v -> String.length v | None -> 0) + 12

let size_of_reply = function
  | Value v -> size_of_value v + 8
  | Values vs ->
    List.fold_left (fun a (c, v) -> a + String.length c + size_of_value v) 8 vs
  | Rows { rows; _ } ->
    List.fold_left
      (fun a (k, cols) ->
        List.fold_left
          (fun a (c, v) -> a + String.length c + size_of_value v)
          (a + String.length k + 8)
          cols)
      8 rows
  | Written _ | Version_mismatch _ | Not_leader _ | Wrong_range _ | Unavailable | Cross_range
  | Fenced _ | Txn_conflict | Txn_decided _ | Stale_request ->
    16
  | Snap_blocked { txn } -> String.length txn + 16

let size_of_cell ((key, col), (cell : Storage.Row.cell)) =
  String.length key + String.length col
  + (match cell.value with Some v -> String.length v | None -> 0)
  + 24

let size_of_write (_, op, _, _) =
  List.fold_left
    (fun acc op ->
      (* Transactional and install records also pay 8 bytes of framing. *)
      let framing =
        match op with
        | Storage.Log_record.Txn_prepare _ | Storage.Log_record.Txn_decision _
        | Storage.Log_record.Txn_resolve _ | Storage.Log_record.Install_cell _ ->
          8
        | _ -> 0
      in
      acc + framing + Storage.Log_record.cell_bytes op)
    24
    (Storage.Log_record.flatten op)

let size = function
  | Request { op; _ } -> size_of_op op + 16
  | Reply { reply; _ } -> size_of_reply reply + 8
  | Propose { writes; _ } -> List.fold_left (fun a w -> a + size_of_write w) 32 writes
  | Ack _ | Commit _ | Read_guard _ | Read_guard_ack _ | Takeover_query _ | Catchup_request _
  | Catchup_done _ ->
    48
  | Catchup_data { cells; _ } -> List.fold_left (fun a c -> a + size_of_cell c) 48 cells
