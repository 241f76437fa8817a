module Lsn = Storage.Lsn
module Row = Storage.Row

type read = Row.key * Row.column
type read_value = Row.key * Row.column * string option * int
type write = Row.key * Row.column * string option

type outcome =
  | Committed of { ts : int }
  | Aborted of { reason : string }
  | Indeterminate of { txn : string }

type t = {
  client : Client.t;
  engine : Sim.Engine.t;
  mutable next : int;
}

let manager ~engine ~config:(_ : Config.t) client = { client; engine; next = 0 }

let fresh_id t =
  let n = t.next in
  t.next <- n + 1;
  Printf.sprintf "t%d.%d" (Client.id t.client) n

let err_string e = Format.asprintf "%a" Client.pp_error e

let dedup_keys keys =
  List.rev
    (List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) [] keys)

(* Capture the snapshot anchor of each key's range, sequentially (the list is
   short and sequencing keeps replay deterministic). Every anchor is a strong
   leader read: [Fenced { lsn; ts }] with the capture instant. *)
let fence_keys t keys k =
  let rec go acc = function
    | [] -> k (Ok (List.rev acc))
    | key :: rest ->
      Client.fence t.client key (function
        | Ok (lsn, ts) -> go ((key, (lsn, ts)) :: acc) rest
        | Error e -> k (Error (Printf.sprintf "fence %s: %s" key (err_string e))))
  in
  go [] keys

(* How many times a snapshot reader retries a [Snap_blocked] read (an
   unresolved intent at or below its fence) before aborting the transaction. *)
let snap_retries = 8

(* One MVCC read at (the key range's fence LSN, the snapshot's global
   timestamp). An unresolved intent at or below the fence blocks the read —
   its owner may yet commit inside our snapshot — so back off and retry a
   bounded number of times before aborting. *)
let rec snap_read t ~fences ~b_ts ~attempts (key, col) k =
  let fence, _ = List.assoc key fences in
  Client.snap_get t.client key col ~fence ~fence_ts:b_ts (function
    | Ok (Client.Snap_value v) -> k (Ok (v.Client.value, v.Client.version))
    | Ok (Client.Snap_intent blocker) ->
      if attempts >= snap_retries then
        k (Error (Printf.sprintf "read %s blocked by %s" key blocker))
      else
        ignore
          (Sim.Engine.schedule t.engine
             ~after:(Sim.Sim_time.ms (1 lsl Stdlib.min 6 attempts))
             (fun () -> snap_read t ~fences ~b_ts ~attempts:(attempts + 1) (key, col) k))
    | Error e -> k (Error (Printf.sprintf "read %s: %s" key (err_string e))))

let snap_reads t ~fences ~b_ts reads k =
  let rec go acc = function
    | [] -> k (Ok (List.rev acc))
    | (key, col) :: rest ->
      snap_read t ~fences ~b_ts ~attempts:0 (key, col) (function
        | Ok (value, version) -> go ((key, col, value, version) :: acc) rest
        | Error reason -> k (Error reason))
  in
  go [] reads

let min_capture_ts fences init =
  List.fold_left (fun acc (_, (_, ts)) -> Stdlib.min acc ts) init fences

(* 2PC over Paxos. One prepare per distinct written key (its range's cohort
   replicates the write intents), a decision record at the anchor key's
   range, then per-key resolves installing final cells. Any prepare failure
   — conflict, cross-range, or timeout (the intent may or may not have
   landed) — decides abort: presumed abort makes the timeout case safe. *)
let full_2pc t ~txn ~fences ~b_ts writes k =
  let keys = dedup_keys (List.map (fun (key, _, _) -> key) writes) in
  let anchor = List.hd keys in
  let unfenced = List.filter (fun key -> not (List.mem_assoc key fences)) keys in
  fence_keys t unfenced (function
    | Error reason ->
      (* Nothing durable yet: clean client-side abort. *)
      k (Aborted { reason })
    | Ok extra ->
      let fences = fences @ extra in
      (* Tightening the snapshot timestamp with the write captures only adds
         conflicts; the already-performed reads stay anchored at their own
         (larger or equal) timestamp, which those writes never constrained. *)
      let b_ts = min_capture_ts extra b_ts in
      let resolve_all ~committed ~ts =
        let pending = ref (List.length keys) in
        List.iter
          (fun key ->
            Client.txn_resolve t.client ~txn ~key ~commit:committed ~ts (fun _ ->
                decr pending;
                if !pending = 0 then
                  if committed then k (Committed { ts })
                  else k (Aborted { reason = "decided abort" })))
          keys
      in
      let decide commit =
        Client.txn_decide t.client ~txn ~anchor ~commit (function
          | Ok (committed, ts) -> resolve_all ~committed ~ts
          | Error _ ->
            (* The decide's fate is unknown (e.g. coordinator failover ate the
               reply). Ask once for the recorded outcome — the status query
               itself logs an abort if none exists — before handing the
               stragglers to the background sweep. *)
            Client.txn_status t.client ~txn ~anchor (function
              | Ok (committed, ts) -> resolve_all ~committed ~ts
              | Error _ -> k (Indeterminate { txn })))
      in
      let rec prepare_next = function
        | [] -> decide true
        | key :: rest ->
          let fence, _ = List.assoc key fences in
          let key_writes =
            List.filter_map
              (fun (key', col, value) -> if String.equal key' key then Some (key', col, value) else None)
              writes
          in
          Client.txn_prepare t.client ~txn ~anchor ~fence ~fence_ts:b_ts key_writes (function
            | Ok () -> prepare_next rest
            | Error _ ->
              (* Conflict or timeout: abort. Earlier prepares (and possibly
                 this one, if its timeout raced a success) left intents;
                 the abort decision plus per-key resolves clears them. *)
              decide false)
      in
      prepare_next keys)

let run t ~reads ~compute k =
  let txn = fresh_id t in
  let read_keys = dedup_keys (List.map fst reads) in
  fence_keys t read_keys (function
    | Error reason -> k (Aborted { reason })
    | Ok fences ->
      let b_ts = min_capture_ts fences max_int in
      snap_reads t ~fences ~b_ts reads (function
        | Error reason -> k (Aborted { reason })
        | Ok values -> (
          match compute values with
          | [] -> k (Committed { ts = (if b_ts = max_int then 0 else b_ts) })
          | [ (key, col, Some value) ] when reads = [] ->
            (* Blind single-cell transaction: byte-for-byte the plain write
               path — same op, same reply, same history entry. *)
            Client.put t.client key col ~value (function
              | Ok () -> k (Committed { ts = 0 })
              | Error e -> k (Aborted { reason = err_string e }))
          | [ (key, col, None) ] when reads = [] ->
            Client.delete t.client key col (function
              | Ok () -> k (Committed { ts = 0 })
              | Error e -> k (Aborted { reason = err_string e }))
          | writes -> full_2pc t ~txn ~fences ~b_ts writes k)))

let pp_outcome ppf = function
  | Committed { ts } -> Format.fprintf ppf "committed (ts=%d)" ts
  | Aborted { reason } -> Format.fprintf ppf "aborted: %s" reason
  | Indeterminate { txn } -> Format.fprintf ppf "indeterminate: %s" txn
