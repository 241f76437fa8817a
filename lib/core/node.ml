type t = {
  id : int;
  engine : Sim.Engine.t;
  net : Message.t Sim.Network.t;
  zk_server : Coord.Zk_server.t;
  partition : Partition.t;
  config : Config.t;
  trace : Sim.Trace.t;
  cpu : Sim.Resource.t;
  disk : Sim.Resource.t;
  wal : Storage.Wal.t;
  mutable cohorts : (int * Cohort.t) list;
      (** hosted replicas; changes at runtime with splits and migrations *)
  mutable zk : Coord.Zk_client.t option;
  mutable zk_reachable : bool;
      (** this node's link to the coordination service (nemesis-controlled);
          independent of the data network and of node liveness *)
  mutable zk_reconnecting : bool;  (** a session-reconnect loop is running *)
  mutable layout_watch_armed : bool;
  mutable alive : bool;
  mutable incarnation : int;
  mutable txn_escalation :
    (txn:string -> anchor:Storage.Row.key -> key:Storage.Row.key -> unit) option;
      (** presumed-abort escalation for in-doubt intents found by a leader
          cohort's sweep; the cluster layer installs a client-backed resolver
          (raw-node tests leave it unset — the sweep is then inert) *)
  planted_hole_ack_bug : bool;  (** fault plant handed to every hosted cohort *)
  shared : Cohort.shared;  (** the cluster's counters and lease switch *)
}

let id t = t.id
let alive t = t.alive
let wal t = t.wal
let cohorts t = t.cohorts
let cohort t ~range = List.assoc_opt range t.cohorts

let send t ?(trace_id = -1) ~dst msg =
  if t.alive then
    Sim.Network.send t.net ~src:t.id ~dst ~size:(Message.size msg) ~trace_id msg

let reply t ~client ~request_id reply =
  (* The reply's transit span joins the request's causal DAG: the owning
     trace id is a pure function of (client, request id). *)
  let trace_id =
    if Sim.Trace.is_enabled t.trace then Sim.Trace.request_trace_id ~client ~request_id
    else -1
  in
  send t ~trace_id ~dst:client (Message.Reply { request_id; reply })

let rec zk_exn t =
  match t.zk with
  | Some zk when Coord.Zk_client.alive zk -> zk
  | _ ->
    (* A fresh session after restart or session expiry. It inherits the
       node's current link state, and its expiry hands control back here so
       the cohorts step down and a reconnect loop starts. *)
    let zk = Coord.Zk_client.connect t.zk_server ~owner:(Printf.sprintf "node-%d" t.id) () in
    Coord.Zk_client.set_reachable zk t.zk_reachable;
    let inc = t.incarnation in
    Coord.Zk_client.set_on_session_expiry zk (fun () ->
        if t.alive && t.incarnation = inc then handle_session_expiry t);
    t.zk <- Some zk;
    zk

(* Group membership (§4.2): each node holds an ephemeral znode under /nodes
   for the lifetime of its session, so cluster tooling can watch the live
   set; the per-range failure handling itself is cohort-driven. A node
   restarted within the session timeout finds its previous session's znode
   still there: it arms a watch and tries again, so it registers once that
   session expires and the stale znode goes (watch before the retry, so a
   deletion in between is not missed). *)
and register_membership ?(armed = false) t =
  let zk = zk_exn t in
  let path = Printf.sprintf "/nodes/%d" t.id in
  Coord.Zk_client.create_node zk ~path ~data:(Printf.sprintf "node-%d" t.id) ~ephemeral:true
    (function
      | Error Coord.Ztree.Node_exists when not armed ->
        let current () = t.alive && match t.zk with Some z -> z == zk | None -> false in
        Coord.Zk_client.watch_node zk ~path (fun () -> if current () then register_membership t);
        register_membership ~armed:true t
      | Ok _ | Error _ -> ())

and handle_session_expiry t =
  Sim.Trace.event t.trace ~node:t.id ~tag:"zk_session"
    (Printf.sprintf "n%d session expired" t.id);
  t.zk <- None;
  t.layout_watch_armed <- false;
  List.iter (fun (_, c) -> Cohort.zk_session_expired c) t.cohorts;
  if not t.zk_reconnecting then reconnect_zk t

(* Poll until the coordination service is reachable again, then open a fresh
   session and let every cohort fall back in line. At most one loop per node
   incarnation; it dies with the incarnation. *)
and reconnect_zk t =
  t.zk_reconnecting <- true;
  let inc = t.incarnation in
  let retry_after =
    Sim.Sim_time.us
      (Stdlib.max 1 (Sim.Sim_time.to_us (Coord.Zk_server.session_timeout t.zk_server) / 4))
  in
  let rec attempt () =
    if t.alive && t.incarnation = inc then begin
      if t.zk_reachable then begin
        t.zk_reconnecting <- false;
        ignore (zk_exn t);
        register_membership t;
        Sim.Trace.event t.trace ~node:t.id ~tag:"zk_session"
          (Printf.sprintf "n%d session renewed" t.id);
        (* Catch up on layout changes missed while disconnected, then let
           every cohort fall back in line under the current layout. *)
        refresh_layout t;
        List.iter (fun (_, c) -> Cohort.zk_session_renewed c) t.cohorts
      end
      else ignore (Sim.Engine.schedule t.engine ~after:retry_after attempt)
    end
    else t.zk_reconnecting <- false
  in
  ignore (Sim.Engine.schedule t.engine ~after:retry_after attempt)

(* ------------------------------------------------------------------ *)
(* Cohort construction and the live-membership machinery (§10).        *)

(* A replica of [range] on [store], or on a fresh store bounded to the range. *)
and make_cohort ?store t range =
  let store =
    match store with
    | Some store -> store
    | None ->
      let store =
        Storage.Store.create ~cohort:range ~wal:t.wal ~flush_bytes:t.config.Config.flush_bytes
          ~cache_capacity:t.config.Config.row_cache_capacity ()
      in
      (match Partition.range_bounds t.partition ~range with
      | lo, hi -> Storage.Store.set_bounds store ~lo ~hi
      | exception _ -> ());
      store
  in
  let ctx : Cohort.ctx =
    {
      engine = t.engine;
      node_id = t.id;
      range;
      config = t.config;
      store;
      wal = t.wal;
      cpu = t.cpu;
      trace = t.trace;
      send = (fun ?trace_id ~dst msg -> send t ?trace_id ~dst msg);
      reply = (fun ~client ~request_id r -> reply t ~client ~request_id r);
      zk = (fun () -> zk_exn t);
      incarnation = (fun () -> t.incarnation);
      routes_here = (fun key -> Partition.route t.partition key = range);
      range_bounds = (fun () -> Partition.range_bounds t.partition ~range);
      members = (fun () -> try Partition.cohort t.partition ~range with _ -> []);
      apply_meta = (fun ~op ~leader -> apply_meta t ~range ~op ~leader);
      retire_self = (fun () -> retire_cohort t ~range);
      resolve_in_doubt =
        (fun ~txn ~anchor ~key ->
          match t.txn_escalation with
          | Some f -> f ~txn ~anchor ~key
          | None -> ());
      planted_hole_ack_bug = t.planted_hole_ack_bug;
      shared = t.shared;
    }
  in
  Cohort.create ctx

(* Host a new replica of [range] at runtime: add it to the hosted set, trace
   why ([note], a tag and its detail) and [start] it. *)
and host t ?store ?note ~range start =
  let c = make_cohort ?store t range in
  t.cohorts <- t.cohorts @ [ (range, c) ];
  (match note with
  | Some (tag, detail) -> Sim.Trace.event t.trace ~node:t.id ~cohort:range ~tag detail
  | None -> ());
  start c;
  c

(* Host split child [child], [lo, hi), off its parent's shared store; [why]
   ends the trace detail. *)
and host_split_child t parent ~child ~lo ~hi why =
  let store = Storage.Store.split_child parent ~cohort:child ~lo ~hi in
  let detail = Printf.sprintf "r%d n%d %s" child t.id why in
  ignore (host t ~store ~note:("split_child", detail) ~range:child Cohort.rejoin)

(* The node no longer hosts [range]: drop the replica and its log records.
   Without the log drop, a node later re-added to a range it once hosted
   would recover stale commit markers and reject perfectly good data. *)
and retire_cohort t ~range =
  match List.assoc_opt range t.cohorts with
  | None -> ()
  | Some c ->
    Cohort.retire c;
    t.cohorts <- List.remove_assoc range t.cohorts;
    Storage.Wal.drop_cohort t.wal ~cohort:range;
    Sim.Trace.event t.trace ~node:t.id ~cohort:range ~tag:"range_retired"
      (Printf.sprintf "r%d n%d" range t.id)

(* A [Catchup_data] arrived for a range this node does not host: a
   migration's bulk round, so the range's leader picked us as the joiner.
   Spawn a learner replica on a clean slate. *)
and ensure_learner t ~range ~src =
  match List.assoc_opt range t.cohorts with
  | Some c -> Some c
  | None ->
    if Partition.mem_range t.partition ~range then begin
      Storage.Wal.drop_cohort t.wal ~cohort:range;
      Some (host t ~range (fun c -> Cohort.start_learner c ~leader:src))
    end
    else None

(* Publish the routing table to /layout so clients (and nodes that slept
   through a change) can refresh; versioned, so stale publications lose. *)
and publish_layout t =
  Coord.Zk_client.set_data (zk_exn t) ~path:"/layout" ~data:(Partition.to_string t.partition)
    (fun _ -> ())

(* Node-level side effects of a committed metadata record. Invoked by the
   hosting cohort when the record commits (leader) or applies (follower), in
   LSN order relative to the range's data records. *)
and apply_meta t ~range ~op ~leader =
  match op with
  | Storage.Log_record.Cohort_change { add; remove } ->
    let members = try Partition.cohort t.partition ~range with _ -> [] in
    let members' =
      let without =
        match remove with Some r -> List.filter (fun n -> n <> r) members | None -> members
      in
      match add with
      | Some a when not (List.mem a without) -> without @ [ a ]
      | _ -> without
    in
    ignore (Partition.set_members t.partition ~range members');
    if leader then publish_layout t;
    (match remove with
    | Some r when r = t.id ->
      (* Swapped out: retire once the current apply unwinds (retiring inside
         the cohort's own apply loop would pull state out from under it). *)
      ignore
        (Sim.Engine.schedule t.engine ~after:(Sim.Sim_time.us 1) (fun () ->
             if t.alive then retire_cohort t ~range))
    | _ -> ())
  | Storage.Log_record.Split { at; new_range } -> (
    match List.assoc_opt range t.cohorts with
    | Some parent ->
      let pstore = Cohort.store parent in
      (* Every record at or below the split LSN is already applied (LSN
         order); flush so the shared SSTables capture all of it before the
         child starts reading them. *)
      Cohort.flush parent;
      let lo, hi =
        match Storage.Store.bounds pstore with
        | Some b -> b
        | None -> Partition.range_bounds t.partition ~range
      in
      ignore (Partition.split t.partition ~range ~at ~new_range);
      let child_members = try Partition.cohort t.partition ~range:new_range with _ -> [] in
      if List.mem t.id child_members && not (List.mem_assoc new_range t.cohorts) then
        host_split_child t pstore ~child:new_range ~lo:at ~hi
          (Printf.sprintf "from r%d at %s" range at);
      Storage.Store.set_bounds pstore ~lo ~hi:at;
      if leader then publish_layout t
    | None -> ignore (Partition.split t.partition ~range ~at ~new_range))
  | _ -> ()

(* Bring this node's hosted set in line with the current routing table —
   the catch-all for changes it missed while down or disconnected (metadata
   records are invisible to cell-based catch-up):
   (a) hosted stores wider than their range (a split committed while we were
       away): recover + flush so the shared tables capture the parent's log,
       carve out the child replicas we should host, clamp the parent;
   (b) ranges we should host but do not: fresh empty replicas that recover
       entirely from peers via catch-up;
   (c) ranges we host but are no longer a member of (and are not currently
       joining): retire them. *)
and reconcile_layout t =
  if t.alive then begin
    List.iter
      (fun (range, c) ->
        let store = Cohort.store c in
        match Storage.Store.bounds store with
        | Some (slo, shi) when Partition.mem_range t.partition ~range ->
          let _, phi = Partition.range_bounds t.partition ~range in
          if String.compare shi phi > 0 then begin
            Cohort.recover_and_flush c;
            List.iter
              (fun (d : Partition.desc) ->
                if
                  String.compare d.lo phi >= 0
                  && String.compare d.lo shi < 0
                  && List.mem t.id d.members
                  && not (List.mem_assoc d.id t.cohorts)
                then
                  host_split_child t store ~child:d.id ~lo:d.lo ~hi:d.hi
                    (Printf.sprintf "reconciled from r%d" range))
              (Partition.descs t.partition);
            Storage.Store.set_bounds store ~lo:slo ~hi:phi
          end
        | _ -> ())
      t.cohorts;
    List.iter
      (fun (d : Partition.desc) ->
        if List.mem t.id d.members && not (List.mem_assoc d.id t.cohorts) then begin
          Storage.Wal.drop_cohort t.wal ~cohort:d.id;
          let detail = Printf.sprintf "r%d n%d" d.id t.id in
          ignore (host t ~note:("range_adopted", detail) ~range:d.id Cohort.rejoin)
        end)
      (Partition.descs t.partition);
    List.iter
      (fun (range, c) ->
        if
          (not (Cohort.is_learner c))
          && not (List.mem t.id (try Partition.cohort t.partition ~range with _ -> []))
        then retire_cohort t ~range)
      t.cohorts
  end

(* Watch /layout (one-shot, re-armed) so nodes that did not participate in a
   change — e.g. the replica a migration swapped out, which stops receiving
   the cohort's commits the moment the change commits — still learn of it. *)
and arm_layout_watch t =
  if t.alive && not t.layout_watch_armed then begin
    t.layout_watch_armed <- true;
    let inc = t.incarnation in
    let zk = zk_exn t in
    Coord.Zk_client.watch_node zk ~path:"/layout" (fun () ->
        if t.alive && t.incarnation = inc then begin
          t.layout_watch_armed <- false;
          Coord.Zk_client.get_data zk ~path:"/layout" (fun r ->
              if t.alive && t.incarnation = inc then begin
                (match r with
                | Ok data -> ignore (Partition.update_from_string t.partition data)
                | Error _ -> ());
                reconcile_layout t;
                arm_layout_watch t
              end)
        end)
  end

(* Session renewed: re-read /layout for changes missed while disconnected,
   reconcile against it and re-arm the watch. *)
and refresh_layout t =
  Coord.Zk_client.get_data (zk_exn t) ~path:"/layout" (fun r ->
      if t.alive then begin
        (match r with
        | Ok data -> ignore (Partition.update_from_string t.partition data)
        | Error _ -> ());
        reconcile_layout t;
        arm_layout_watch t
      end)

let set_zk_reachable t r =
  if t.zk_reachable <> r then begin
    t.zk_reachable <- r;
    Sim.Trace.event t.trace ~node:t.id ~tag:"zk_link"
      (Printf.sprintf "n%d coordination link %s" t.id (if r then "healed" else "cut"));
    match t.zk with Some zk -> Coord.Zk_client.set_reachable zk r | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let handle t (env : Message.t Sim.Network.envelope) =
  if t.alive then begin
    match env.payload with
    | Message.Request { client; request_id; floor; op } -> (
      let range = Partition.route t.partition (Message.key_of_op op) in
      match cohort t ~range with
      | Some c -> Cohort.handle_client c ~client ~request_id ~floor op
      | None ->
        (* This node does not serve the key's range under the current layout
           (a split or migration may have moved it): tell the client to
           refresh its routing table, pointing at the probable leader. *)
        reply t ~client ~request_id
          (Message.Wrong_range { hint = Some (Partition.primary t.partition ~range) }))
    | Message.Reply _ -> ()
    | Message.Catchup_data { range; _ } -> (
      match ensure_learner t ~range ~src:env.src with
      | Some c -> Cohort.handle_peer c ~src:env.src ~sent_at:env.sent_at env.payload
      | None -> ())
    | Message.Propose { range; _ }
    | Message.Ack { range; _ }
    | Message.Commit { range; _ }
    | Message.Read_guard { range; _ }
    | Message.Read_guard_ack { range; _ }
    | Message.Takeover_query { range; _ }
    | Message.Catchup_request { range; _ }
    | Message.Catchup_done { range; _ } -> (
      match cohort t ~range with
      | Some c -> Cohort.handle_peer c ~src:env.src ~sent_at:env.sent_at env.payload
      | None -> ())
  end

let create ~engine ~net ~zk_server ~partition ~config ~trace ~planted_hole_ack_bug ~shared ~id =
  let cpu = Sim.Resource.create engine ~servers:4 () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create config.Config.disk in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let wal =
    Storage.Wal.create engine ~disk ~model ~rng ~max_batch:config.Config.wal_max_batch ()
  in
  let t =
    {
      id;
      engine;
      net;
      zk_server;
      partition;
      config;
      trace;
      cpu;
      disk;
      wal;
      cohorts = [];
      zk = None;
      zk_reachable = true;
      zk_reconnecting = false;
      layout_watch_armed = false;
      alive = false;
      incarnation = 0;
      txn_escalation = None;
      planted_hole_ack_bug;
      shared;
    }
  in
  t.cohorts <-
    List.map
      (fun range -> (range, make_cohort t range))
      (Partition.ranges_of_node partition ~node:id);
  t

let set_txn_escalation t f = t.txn_escalation <- Some f

(* First boot, and the tail of every restart. The layout may have moved
   while the node was down (the shared routing table is authoritative), and
   a node added after cluster bootstrap hosts nothing until a migration
   targets it: so first shed ranges it no longer owns and adopt ones it
   missed — including splits, whose metadata records cell-based catch-up
   cannot convey — then rejoin the survivors. *)
let start t =
  t.alive <- true;
  Sim.Network.register t.net ~node:t.id (handle t);
  ignore (zk_exn t);
  register_membership t;
  reconcile_layout t;
  List.iter (fun (_, c) -> if Cohort.role c = Cohort.Offline then Cohort.rejoin c) t.cohorts;
  arm_layout_watch t

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.incarnation <- t.incarnation + 1;
    Sim.Network.set_up t.net t.id false;
    (match t.zk with Some zk -> Coord.Zk_client.crash zk | None -> ());
    t.zk <- None;
    t.zk_reconnecting <- false;
    t.layout_watch_armed <- false;
    Storage.Wal.crash t.wal;
    List.iter (fun (_, c) -> Cohort.crash c) t.cohorts;
    Sim.Trace.event t.trace ~node:t.id ~tag:"node_crash" (Printf.sprintf "n%d" t.id)
  end

let restart t =
  if not t.alive then begin
    t.incarnation <- t.incarnation + 1;
    Sim.Trace.event t.trace ~node:t.id ~tag:"node_restart" (Printf.sprintf "n%d" t.id);
    start t
  end

let lose_disk t =
  Storage.Wal.wipe t.wal;
  List.iter (fun (_, c) -> Cohort.wipe_storage c) t.cohorts;
  Sim.Trace.event t.trace ~node:t.id ~tag:"disk_lost" (Printf.sprintf "n%d" t.id)

let failure_target t =
  Sim.Failure.
    {
      label = Printf.sprintf "node-%d" t.id;
      crash = (fun () -> crash t);
      restart = (fun () -> restart t);
      lose_disk = (fun () -> lose_disk t);
    }
