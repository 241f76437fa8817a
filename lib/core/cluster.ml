type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  partition : Partition.t;
  net : Message.t Sim.Network.t;
  zk_server : Coord.Zk_server.t;
  mutable nodes : Node.t array;  (** grows when nodes are added at runtime *)
  trace : Sim.Trace.t;
  flight : Sim.Trace.Flight.t;
  metrics : Sim.Metrics.Registry.t;
  mutable next_client : int;
  planted_hole_ack_bug : bool;  (** fault plant handed to every node *)
  shared : Cohort.shared;  (** read counters, write phases, lease switch *)
}

let bootstrap_zk zk_server partition =
  (* Persistent range directories (Figure 7 stores election state under /r). *)
  let session = Coord.Zk_server.open_session zk_server in
  let create path =
    ignore
      (Coord.Zk_server.create_node zk_server ~session ~path ~data:"" ~ephemeral:false
         ~sequential:false)
  in
  create "/ranges";
  create "/nodes";
  for r = 0 to Partition.ranges partition - 1 do
    create (Printf.sprintf "/ranges/%d" r);
    create (Printf.sprintf "/ranges/%d/candidates" r);
    ignore
      (Coord.Zk_server.create_node zk_server ~session
         ~path:(Printf.sprintf "/ranges/%d/epoch" r)
         ~data:"0" ~ephemeral:false ~sequential:false)
  done;
  (* The published routing table (§10): leaders overwrite it when a
     membership change or split commits; clients and dozing nodes read it to
     refresh their cached copy. *)
  ignore
    (Coord.Zk_server.create_node zk_server ~session ~path:"/layout"
       ~data:(Partition.to_string partition) ~ephemeral:false ~sequential:false);
  (* Range-id allocator for splits. [incr_counter] returns the new value, so
     seeding with the last preallocated id hands the first split the next
     free one. *)
  ignore
    (Coord.Zk_server.create_node zk_server ~session ~path:"/next_range"
       ~data:(string_of_int (Partition.ranges partition - 1))
       ~ephemeral:false ~sequential:false);
  Coord.Zk_server.close_session zk_server ~session

let register_node_gauges metrics node =
  let id = Node.id node in
  let gauge name read = ignore (Sim.Metrics.Registry.register_gauge metrics ~node:id ~name read) in
  gauge "wal_volatile_bytes" (fun () -> Storage.Wal.volatile_bytes (Node.wal node));
  List.iter
    (fun (range, c) ->
      let g fmt read = gauge (Printf.sprintf fmt range) read in
      g "r%d_log_records" (fun () -> Storage.Wal.durable_writes (Node.wal node) ~cohort:range);
      g "r%d_memtable_bytes" (fun () -> Storage.Store.memtable_bytes (Cohort.store c));
      g "r%d_sstable_count" (fun () -> Storage.Store.sstable_count (Cohort.store c));
      g "r%d_commit_queue_depth" (fun () -> Cohort.pending_writes c);
      g "r%d_reply_cache_size" (fun () -> Cohort.reply_cache_size c);
      g "r%d_cache_hits" (fun () -> Storage.Store.cache_hits (Cohort.store c));
      g "r%d_cache_misses" (fun () -> Storage.Store.cache_misses (Cohort.store c));
      g "r%d_cache_evictions" (fun () -> Storage.Store.cache_evictions (Cohort.store c)))
    (Node.cohorts node)

let create ?(planted_hole_ack_bug = false) engine config =
  let partition =
    Partition.create ~nodes:config.Config.nodes ~replication:Config.replication
      ~key_space:config.Config.key_space
  in
  let net = Sim.Network.create engine () in
  let zk_server =
    Coord.Zk_server.create engine ~session_timeout:config.Config.session_timeout ()
  in
  let trace = Sim.Trace.create ~capacity:config.Config.trace_capacity engine in
  Coord.Zk_server.attach_trace zk_server trace;
  bootstrap_zk zk_server partition;
  Sim.Network.attach_trace net trace;
  let flight =
    Sim.Trace.Flight.create ~top_k:config.Config.outlier_top_k trace
  in
  let metrics = Sim.Metrics.Registry.create engine in
  (* Ring-eviction visibility: a non-zero [trace_dropped] means analyses over
     the ring (critical paths, timelines) may be missing events. *)
  ignore
    (Sim.Metrics.Registry.register_gauge metrics ~node:(-1) ~name:"trace_dropped" (fun () ->
         Sim.Trace.dropped trace));
  let shared = Cohort.shared () in
  let nodes =
    Array.init config.Config.nodes (fun id ->
        Node.create ~engine ~net ~zk_server ~partition ~config ~trace ~planted_hole_ack_bug
          ~shared ~id)
  in
  (* Resource gauges, one series per node (and per cohort where the resource
     is per-range); sampled by the registry ticker once the cluster starts. *)
  Array.iter (register_node_gauges metrics) nodes;
  { engine; config; partition; net; zk_server; nodes; trace; flight; metrics;
    next_client = 10_000; planted_hole_ack_bug; shared }

let new_client t =
  let id = t.next_client in
  t.next_client <- id + 1;
  let zk = Coord.Zk_client.reader t.zk_server in
  let lookup_leader ~range k =
    Coord.Zk_client.read zk
      ~path:(Printf.sprintf "/ranges/%d/leader" range)
      (function Ok data -> k (int_of_string_opt data) | Error _ -> k None)
  in
  let fetch_layout k =
    Coord.Zk_client.read zk ~path:"/layout" (function
      | Ok data -> k (Some data)
      | Error _ -> k None)
  in
  (* Each client routes on its own snapshot of the table; [Wrong_range]
     answers make it re-fetch /layout (§10). *)
  Client.create ~engine:t.engine ~net:t.net
    ~partition:(Partition.copy t.partition)
    ~config:t.config ~id ~trace:t.trace ~flight:t.flight ~lookup_leader ~fetch_layout ()

(* Presumed-abort recovery agent: when any leader cohort's sweep finds an
   in-doubt intent, a cluster-owned client asks the coordinator for the
   transaction's outcome (logging an abort there if none exists) and then
   resolves the stranded intents. One lazily created client serves the whole
   cluster — escalations are rare and idempotent. *)
let install_txn_escalation t =
  let resolver = ref None in
  let client () =
    match !resolver with
    | Some c -> c
    | None ->
      let c = new_client t in
      resolver := Some c;
      c
  in
  let escalate ~txn ~anchor ~key =
    let c = client () in
    Client.txn_status c ~txn ~anchor (function
      | Ok (committed, ts) -> Client.txn_resolve c ~txn ~key ~commit:committed ~ts (fun _ -> ())
      | Error _ -> ())
  in
  Array.iter (fun n -> Node.set_txn_escalation n escalate) t.nodes

let start t =
  install_txn_escalation t;
  Array.iter Node.start t.nodes;
  (* A zero period disables the periodic gauge sampler: benches that do not
     export timelines should not pay one sweep over every gauge per 100 ms
     of sim time. *)
  if Sim.Sim_time.span_compare t.config.Config.metrics_sample_period Sim.Sim_time.span_zero > 0
  then
    Sim.Metrics.Registry.start_sampling t.metrics ~period:t.config.Config.metrics_sample_period

let engine t = t.engine
let config t = t.config
let partition t = t.partition
let net t = t.net
let zk_server t = t.zk_server
let trace t = t.trace
let flight t = t.flight
let metrics t = t.metrics
let node t i = t.nodes.(i)
let nodes t = t.nodes

(* Scale-out (§10): a fresh node joins the running cluster. It hosts no
   ranges until a migration or split makes it a cohort member; until then it
   only registers with the coordination service and watches /layout. *)
let add_node t =
  let id = Array.length t.nodes in
  let node =
    Node.create ~engine:t.engine ~net:t.net ~zk_server:t.zk_server ~partition:t.partition
      ~config:t.config ~trace:t.trace ~planted_hole_ack_bug:t.planted_hole_ack_bug
      ~shared:t.shared ~id
  in
  t.nodes <- Array.append t.nodes [| node |];
  register_node_gauges t.metrics node;
  install_txn_escalation t;
  Node.start node;
  id

let leader_of t ~range =
  let cohort_nodes = Partition.cohort t.partition ~range in
  List.find_map
    (fun n ->
      match Node.cohort t.nodes.(n) ~range with
      | Some c when Node.alive t.nodes.(n) && Cohort.is_open c -> Some n
      | _ -> None)
    cohort_nodes

type read_path_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  sstables_skipped : int;
  sstables_probed : int;
  compactions : int;
  full_compactions : int;
  max_compaction_input_bytes : int;
  total_compaction_input_bytes : int;
  max_store_bytes_at_compaction : int;
  tables_per_node : (int * int list) list;
}

let read_path_stats t =
  let stats =
    ref
      {
        cache_hits = 0;
        cache_misses = 0;
        cache_evictions = 0;
        sstables_skipped = 0;
        sstables_probed = 0;
        compactions = 0;
        full_compactions = 0;
        max_compaction_input_bytes = 0;
        total_compaction_input_bytes = 0;
        max_store_bytes_at_compaction = 0;
        tables_per_node = [];
      }
  in
  Array.iter
    (fun node ->
      let tables = ref [] in
      List.iter
        (fun (_, c) ->
          let s = Cohort.store c in
          let acc = !stats in
          tables := Storage.Store.sstable_count s :: !tables;
          stats :=
            {
              acc with
              cache_hits = acc.cache_hits + Storage.Store.cache_hits s;
              cache_misses = acc.cache_misses + Storage.Store.cache_misses s;
              cache_evictions = acc.cache_evictions + Storage.Store.cache_evictions s;
              sstables_skipped = acc.sstables_skipped + Storage.Store.sstables_skipped s;
              sstables_probed = acc.sstables_probed + Storage.Store.sstables_probed s;
              compactions = acc.compactions + Storage.Store.compactions s;
              full_compactions = acc.full_compactions + Storage.Store.full_compactions s;
              max_compaction_input_bytes =
                Stdlib.max acc.max_compaction_input_bytes
                  (Storage.Store.max_compaction_input_bytes s);
              total_compaction_input_bytes =
                acc.total_compaction_input_bytes
                + Storage.Store.total_compaction_input_bytes s;
              max_store_bytes_at_compaction =
                Stdlib.max acc.max_store_bytes_at_compaction
                  (Storage.Store.max_store_bytes_at_compaction s);
            })
        (Node.cohorts node);
      stats :=
        { !stats with tables_per_node = (Node.id node, List.rev !tables) :: !stats.tables_per_node })
    t.nodes;
  { !stats with tables_per_node = List.rev !stats.tables_per_node }

(* The bench's leased-vs-unleased A/B switch: every replica, hosted now or
   later, reads the one shared flag, so the comparison runs over the same
   preloaded stores. *)
let set_lease_enabled t enabled = t.shared.Cohort.lease_disabled <- not enabled

type read_serve_stats = Cohort.read_stats = {
  mutable leased : int;
  mutable guarded : int;
  mutable lease_rejects : int;
  mutable guard_fails : int;
  mutable leader_timeline : int;
  mutable follower_timeline : int;
  mutable token_waits : int;
  mutable token_redirects : int;
}

let read_serve_stats t =
  let r = t.shared.Cohort.reads in
  { r with leased = r.leased }

let write_phases t = t.shared.Cohort.phases
let largest_bulk_bytes t = t.shared.Cohort.largest_bulk

let is_ready t =
  List.for_all (fun r -> leader_of t ~range:r <> None) (Partition.range_ids t.partition)

let run_until_ready ?(timeout = Sim.Sim_time.sec 60) t =
  let deadline = Sim.Sim_time.add (Sim.Engine.now t.engine) timeout in
  let rec loop () =
    if is_ready t then true
    else if Sim.Sim_time.(Sim.Engine.now t.engine >= deadline) then false
    else begin
      Sim.Engine.run_for t.engine (Sim.Sim_time.ms 50);
      loop ()
    end
  in
  loop ()

(* Administrative rebalancing entry points. Both are asynchronous: they ask
   the range's current leader to drive the protocol and return immediately;
   [false] means there was no open leader (or it was already busy) and the
   caller should retry later. *)
let request_join t ~range ~joiner ?remove () =
  match leader_of t ~range with
  | None -> false
  | Some n -> (
    match Node.cohort t.nodes.(n) ~range with
    | Some c -> Cohort.request_join c ~joiner ?remove ()
    | None -> false)

let request_split t ~range =
  match leader_of t ~range with
  | None -> false
  | Some n -> (
    match Node.cohort t.nodes.(n) ~range with
    | Some c -> Cohort.request_split c
    | None -> false)

let crash_node t i = Node.crash t.nodes.(i)
let restart_node t i = Node.restart t.nodes.(i)
let set_zk_reachable t i r = Node.set_zk_reachable t.nodes.(i) r
let failure_targets t = Array.to_list (Array.map Node.failure_target t.nodes)

let registered_nodes t =
  match Coord.Zk_server.children t.zk_server ~path:"/nodes" with
  | Ok kids -> List.filter_map (fun (name, _) -> int_of_string_opt name) kids
  | Error _ -> []

let pp_status ppf t =
  Format.fprintf ppf "cluster: %d nodes, %d ranges, registered live: [%s]@."
    (Array.length t.nodes)
    (Partition.ranges t.partition)
    (String.concat "," (List.map string_of_int (registered_nodes t)));
  List.iter
    (fun range ->
      let members = Partition.cohort t.partition ~range in
      let lo, hi = Partition.range_bounds t.partition ~range in
      Format.fprintf ppf "  range %d [%s,%s): " range lo hi;
      List.iter
        (fun n ->
          match Node.cohort t.nodes.(n) ~range with
          | Some c ->
            let role =
              if not (Node.alive t.nodes.(n)) then "down"
              else
                match Cohort.role c with
                | Cohort.Leader -> if Cohort.is_open c then "LEADER" else "leader(closed)"
                | Cohort.Follower -> if Cohort.is_learner c then "learner" else "follower"
                | Cohort.Candidate -> "candidate"
                | Cohort.Offline -> "offline"
            in
            Format.fprintf ppf "n%d=%s cmt=%s  " n role
              (Storage.Lsn.to_string (Cohort.cmt c))
          | None -> ())
        members;
      Format.fprintf ppf "@.")
    (Partition.range_ids t.partition)
