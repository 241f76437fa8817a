(* Model tests for the cohort's two leaf sub-machines, driven without a
   cluster: the reply cache against a naive per-client model, and the 2PC
   participant's verdicts plus its rebuild-from-store-and-queue rule. *)

open Spinnaker
module Lsn = Storage.Lsn
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module TP = Txn_participant

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let lsn e s = Lsn.make ~epoch:e ~seq:s

(* --- reply cache vs a naive model ------------------------------------------ *)

type rc_op =
  | Admit of int * int * int  (** client, request id, floor *)
  | Record of int * int * Log_record.outcome
  | Settle of (int * int * int) option * Log_record.outcome  (** origin (client, id, floor) *)
  | Release of int * int
  | Mark_pending of (int * int * int) list
  | Adopt of Log_record.reply_cache
  | Clear

let show_outcome = function
  | Log_record.Written l -> "written " ^ Lsn.to_string l
  | Log_record.Decided { commit; ts } -> Printf.sprintf "decided commit=%b ts=%d" commit ts
  | Log_record.Version_mismatch v -> Printf.sprintf "mismatch %d" v
  | Log_record.Txn_conflict -> "conflict"
  | Log_record.Cross_range -> "cross_range"

let show_rc_op = function
  | Admit (c, id, f) -> Printf.sprintf "admit c%d #%d floor=%d" c id f
  | Record (c, id, o) -> Printf.sprintf "record c%d #%d %s" c id (show_outcome o)
  | Settle (None, o) -> "settle - " ^ show_outcome o
  | Settle (Some (c, id, f), o) ->
    Printf.sprintf "settle c%d #%d floor=%d %s" c id f (show_outcome o)
  | Release (c, id) -> Printf.sprintf "release c%d #%d" c id
  | Mark_pending os ->
    "mark_pending " ^ String.concat "," (List.map (fun (c, id, _) -> Printf.sprintf "c%d#%d" c id) os)
  | Adopt snap ->
    "adopt "
    ^ String.concat ";"
        (List.map
           (fun (c, f, outs) ->
             Printf.sprintf "c%d floor=%d [%s]" c f
               (String.concat "," (List.map (fun (id, _) -> string_of_int id) outs)))
           snap)
  | Clear -> "clear"

(* The model keeps every (client, id) entry it was given and filters by the
   client's floor when asked, where the real cache trims eagerly; a client
   is listed once anything but a release has named it. *)
type entry = Flight | Done of Log_record.outcome

type model = {
  mutable floors : (int * int) list;
  mutable entries : ((int * int) * entry) list;
}

let m_floor m c = Option.value (List.assoc_opt c m.floors) ~default:0
let m_touch m c = if not (List.mem_assoc c m.floors) then m.floors <- (c, 0) :: m.floors

let m_raise m c f =
  m_touch m c;
  if f > m_floor m c then m.floors <- (c, f) :: List.remove_assoc c m.floors

let m_find m c id = if id < m_floor m c then None else List.assoc_opt (c, id) m.entries

let m_set m c id e =
  m_touch m c;
  if id >= m_floor m c then m.entries <- ((c, id), e) :: List.remove_assoc (c, id) m.entries

let m_step m = function
  | Admit (c, id, f) ->
    m_raise m c f;
    if id < m_floor m c then Some Reply_cache.Stale
    else (
      match m_find m c id with
      | Some (Done o) -> Some (Reply_cache.Settled o)
      | Some Flight -> Some Reply_cache.Pending
      | None ->
        m_set m c id Flight;
        Some Reply_cache.Admitted)
  | Record (c, id, o) ->
    m_set m c id (Done o);
    None
  | Settle (None, _) -> None
  | Settle (Some (c, id, f), o) ->
    m_raise m c f;
    m_set m c id (Done o);
    None
  | Release (c, id) ->
    if m_find m c id = Some Flight then m.entries <- List.remove_assoc (c, id) m.entries;
    None
  | Mark_pending os ->
    List.iter (fun (c, id, _) -> if m_find m c id = None then m_set m c id Flight else m_touch m c) os;
    None
  | Adopt snap ->
    List.iter
      (fun (c, f, outs) ->
        m_raise m c f;
        List.iter (fun (id, o) -> m_set m c id (Done o)) outs)
      snap;
    None
  | Clear ->
    m.floors <- [];
    m.entries <- [];
    None

let m_visible m = List.filter (fun ((c, id), _) -> id >= m_floor m c) m.entries

let m_settled m =
  List.sort compare
    (List.map
       (fun (c, f) ->
         ( c,
           f,
           List.sort compare
             (List.filter_map
                (function (c', id), Done o when c' = c -> Some (id, o) | _ -> None)
                (m_visible m)) ))
       m.floors)

let rc_step rc = function
  | Admit (client, request_id, floor) -> Some (Reply_cache.admit rc ~client ~request_id ~floor)
  | Record (client, request_id, o) ->
    Reply_cache.record rc ~client ~request_id o;
    None
  | Settle (origin, o) ->
    Reply_cache.settle rc
      (Option.map (fun (client, request_id, floor) -> { Log_record.client; request_id; floor }) origin)
      o;
    None
  | Release (client, request_id) ->
    Reply_cache.release rc ~client ~request_id;
    None
  | Mark_pending os ->
    Reply_cache.mark_pending rc
      (List.map (fun (client, request_id, floor) -> { Log_record.client; request_id; floor }) os);
    None
  | Adopt snap ->
    Reply_cache.adopt rc snap;
    None
  | Clear ->
    Reply_cache.clear rc;
    None

let rc_settled rc =
  List.sort compare
    (List.map (fun (c, f, outs) -> (c, f, List.sort compare outs)) (Reply_cache.settled rc))

let gen_rc_ops =
  let open QCheck.Gen in
  let client = int_bound 2 and id = int_bound 11 and floor = int_bound 6 in
  let outcome =
    oneofl
      [
        Log_record.Written (lsn 1 1);
        Log_record.Written (lsn 1 2);
        Log_record.Decided { commit = true; ts = 5 };
        Log_record.Version_mismatch 3;
        Log_record.Txn_conflict;
        Log_record.Cross_range;
      ]
  in
  let origin = triple client id floor in
  let op =
    frequency
      [
        (6, map3 (fun c i f -> Admit (c, i, f)) client id floor);
        (4, map3 (fun c i o -> Record (c, i, o)) client id outcome);
        (3, map2 (fun o out -> Settle (o, out)) (opt origin) outcome);
        (3, map2 (fun c i -> Release (c, i)) client id);
        (2, map (fun os -> Mark_pending os) (list_size (int_bound 3) origin));
        ( 2,
          map
            (fun snap -> Adopt snap)
            (list_size (int_bound 2) (triple client floor (list_size (int_bound 3) (pair id outcome))))
        );
        (1, return Clear);
      ]
  in
  list_size (int_range 1 60) op

let prop_reply_cache_model =
  QCheck.Test.make ~name:"reply cache matches a naive per-client model" ~count:500
    (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_rc_op ops)) gen_rc_ops)
    (fun ops ->
      let rc = Reply_cache.create () in
      let m = { floors = []; entries = [] } in
      List.for_all
        (fun op ->
          let got = rc_step rc op and want = m_step m op in
          got = want
          && Reply_cache.size rc = List.length (m_visible m)
          && rc_settled rc = m_settled m)
        ops)

(* --- 2PC participant --------------------------------------------------------- *)

let make_store () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) () in
  Store.create ~cohort:0 ~wal ~cache_capacity:0 ()

let fresh () =
  let store = make_store () in
  let queue = Commit_queue.create () in
  (store, queue, TP.create ~store ~queue)

let k i = Printf.sprintf "k%d" i
let everywhere _ = true

(* A fence above every LSN these tests write and an unbounded snapshot
   timestamp: only locks, intents and pending writes conflict. *)
let prepare ?(fence = lsn 9 0) ?(fence_ts = max_int) txn keys =
  Message.Txn_prepare_req
    { txn; anchor = "anchor"; fence; fence_ts; writes = List.map (fun key -> (key, "c", Some txn)) keys }

let decide ?(commit = true) txn = Message.Txn_decide_req { txn; anchor = "anchor"; commit }
let resolve ?(commit = true) txn = Message.Txn_resolve_req { txn; key = k 1; commit; ts = 100 }
let record ?(routes_here = everywhere) ?(cmt = Lsn.zero) ?(ts = 100) p op = TP.record p ~routes_here ~cmt ~ts op

let show = function
  | TP.Append (Log_record.Txn_prepare _) -> "append prepare"
  | TP.Append (Log_record.Txn_decision { commit; ts; _ }) ->
    Printf.sprintf "append decision commit=%b ts=%d" commit ts
  | TP.Append (Log_record.Txn_resolve { commit; writes; _ }) ->
    Printf.sprintf "append resolve commit=%b cells=%d" commit (List.length writes)
  | TP.Append _ -> "append other"
  | TP.Answer o -> show_outcome o
  | TP.Refuse -> "refuse"

(* Apply an appended record as its commit would: store first, then the
   participant's bookkeeping. *)
let apply store p ~at = function
  | TP.Append op ->
    Store.apply store ~lsn:at ~timestamp:0 op;
    TP.applied p op
  | v -> Alcotest.failf "expected an append, got %s" (show v)

let cell key = (key, "c", Some "plain", None)

let test_prepare_conflicts () =
  let store, queue, p = fresh () in
  let check name want op = check_str name want (show (record p op)) in
  check "first prepare" "append prepare" (prepare "a" [ k 1 ]);
  check "a foreign lock" "conflict" (prepare "b" [ k 1 ]);
  check "its own lock" "append prepare" (prepare "a" [ k 1 ]);
  check_bool "a lock blocks plain writes" true (TP.blocks_write p [ cell (k 1) ]);
  Commit_queue.add queue ~lsn:(lsn 1 1)
    ~op:(Log_record.Put { key = k 2; col = "c"; value = "x"; version = 1 })
    ~timestamp:0 ();
  check "a pending write" "conflict" (prepare "c" [ k 2 ]);
  Store.apply store ~lsn:(lsn 1 5) ~timestamp:50
    (Log_record.Put { key = k 3; col = "c"; value = "x"; version = 1 });
  check "a plain version above the fence" "conflict" (prepare ~fence:(lsn 1 4) "d" [ k 3 ]);
  check "a plain version at the fence" "append prepare" (prepare ~fence:(lsn 1 5) "d" [ k 3 ]);
  Store.apply store ~lsn:(lsn 1 6) ~timestamp:300
    (Log_record.Txn_resolve { txn = "z"; commit = true; ts = 300; writes = [ (k 4, "c", Some "z", 1) ] });
  check "a commit after the snapshot" "conflict" (prepare ~fence_ts:299 "e" [ k 4 ]);
  check "a commit inside the snapshot" "append prepare" (prepare ~fence_ts:300 "e" [ k 4 ]);
  Store.apply store ~lsn:(lsn 1 7) ~timestamp:70
    (Log_record.Txn_prepare
       { txn = "f"; anchor = "anchor"; fence = Lsn.zero; writes = [ (k 5, "c", Some "f") ] });
  check "an applied foreign intent" "conflict" (prepare "g" [ k 5 ]);
  check_bool "an applied intent blocks plain writes" true (TP.blocks_write p [ cell (k 5) ]);
  check_bool "a free coordinate" false (TP.blocks_write p [ cell (k 6) ]);
  check "no writes" "cross_range" (prepare "h" []);
  check_str "a key outside the range" "cross_range"
    (show (record ~routes_here:(fun key -> key <> k 7) p (prepare "h" [ k 6; k 7 ])));
  check_bool "refused prepares took no lock" false (TP.blocks_write p [ cell (k 6) ])

let test_first_decision_wins () =
  let store, _, p = fresh () in
  let check name want ts op = check_str name want (show (record ~ts p op)) in
  check "a commit" "append decision commit=true ts=100" 100 (decide "t");
  check "a status query after it" "decided commit=true ts=100" 200 (decide ~commit:false "t");
  apply store p ~at:(lsn 1 1)
    (TP.Append (Log_record.Txn_decision { txn = "t"; anchor = "anchor"; commit = true; ts = 100 }));
  let _, pending, _ = TP.tables p in
  check_bool "the applied decision left the table" true (pending = []);
  check "the store's decision cell answers" "decided commit=true ts=100" 300
    (decide ~commit:false "t");
  check "a status query with nothing on record" "append decision commit=false ts=400" 400
    (decide ~commit:false "u");
  check "a late commit learns the abort" "decided commit=false ts=400" 500 (decide "u")

let test_resolve_idempotent () =
  let store, _, p = fresh () in
  apply store p ~at:(lsn 1 1) (record p (prepare "r" [ k 1; k 2 ]));
  check_str "resolve" "append resolve commit=true cells=2"
    (show (record ~cmt:(lsn 1 1) p (resolve "r")));
  let locks, _, resolving = TP.tables p in
  check_bool "no lock left" true (locks = []);
  check_bool "guarded" true (resolving = [ "r" ]);
  check_str "a retry while it is in flight" "written 1.1"
    (show (record ~cmt:(lsn 1 1) p (resolve "r")));
  apply store p ~at:(lsn 1 2)
    (TP.Append
       (Log_record.Txn_resolve
          { txn = "r"; commit = true; ts = 100; writes = [ (k 1, "c", Some "r", 1); (k 2, "c", Some "r", 1) ] }));
  check_str "a retry after it applied" "written 1.2" (show (record ~cmt:(lsn 1 2) p (resolve "r")));
  check_str "a transaction that never prepared here" "written 1.2"
    (show (record ~cmt:(lsn 1 2) p (resolve ~commit:false "none")));
  check_bool "every table is empty" true (TP.tables p = ([], [], []))

type tp_step =
  | Prep of int * int list
  | Decide of int * bool
  | Resolve of int * bool
  | Put of int
  | Apply

let show_tp_step = function
  | Prep (t, ks) -> Printf.sprintf "prepare t%d [%s]" t (String.concat "," (List.map k ks))
  | Decide (t, c) -> Printf.sprintf "decide t%d %b" t c
  | Resolve (t, c) -> Printf.sprintf "resolve t%d %b" t c
  | Put key -> "put " ^ k key
  | Apply -> "apply"

let gen_tp_steps =
  let open QCheck.Gen in
  let txn = int_bound 3 and key = int_bound 3 in
  let step =
    frequency
      [
        (3, map2 (fun t ks -> Prep (t, List.sort_uniq compare ks)) txn (list_size (int_range 1 3) key));
        (2, map2 (fun t c -> Decide (t, c)) txn bool);
        (2, map2 (fun t c -> Resolve (t, c)) txn bool);
        (1, map (fun key -> Put key) key);
        (4, return Apply);
      ]
  in
  list_size (int_range 1 50) step

(* Requests are appended to the queue as the participant decides; [Apply]
   commits the oldest entry as the cohort does. After every step a
   participant rebuilt from the store and queue must hold exactly the
   incrementally kept tables — what a leader opening a new term relies on. *)
let prop_rebuild_matches_incremental =
  QCheck.Test.make ~name:"txn participant: rebuild equals the incremental tables" ~count:300
    (QCheck.make ~print:(fun s -> String.concat "\n" (List.map show_tp_step s)) gen_tp_steps)
    (fun steps ->
      let store, queue, p = fresh () in
      let seq = ref 0 and cmt = ref Lsn.zero in
      let append op =
        incr seq;
        Commit_queue.add queue ~lsn:(lsn 1 !seq) ~op ~timestamp:!seq ()
      in
      let decide_on req =
        match record ~cmt:!cmt ~ts:(!seq + 1) p req with TP.Append op -> append op | _ -> ()
      in
      let txn i = Printf.sprintf "t%d" i in
      List.for_all
        (fun step ->
          (match step with
          | Prep (t, keys) -> decide_on (prepare (txn t) (List.map k keys))
          | Decide (t, commit) -> decide_on (decide ~commit (txn t))
          | Resolve (t, commit) -> decide_on (resolve ~commit (txn t))
          | Put key ->
            if not (TP.blocks_write p [ cell (k key) ]) then
              append
                (Log_record.Put
                   {
                     key = k key;
                     col = "c";
                     value = "plain";
                     version = Commit_queue.current_version queue store (k key, "c") + 1;
                   })
          | Apply -> (
            match Commit_queue.min_lsn queue with
            | None -> ()
            | Some oldest ->
              List.iter
                (fun (e : Commit_queue.entry) ->
                  Store.apply store ~lsn:e.lsn ~timestamp:e.timestamp e.op;
                  cmt := e.lsn;
                  TP.applied p e.op)
                (Commit_queue.pop_upto queue oldest)));
          let rebuilt = TP.create ~store ~queue in
          TP.rebuild rebuilt;
          TP.tables rebuilt = TP.tables p)
        steps)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_reply_cache_model;
    Alcotest.test_case "txn participant: prepare conflicts" `Quick test_prepare_conflicts;
    Alcotest.test_case "txn participant: first decision wins" `Quick test_first_decision_wins;
    Alcotest.test_case "txn participant: resolve is idempotent" `Quick test_resolve_idempotent;
    QCheck_alcotest.to_alcotest prop_rebuild_matches_incremental;
  ]
