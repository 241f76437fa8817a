(** A Spinnaker node (Figure 3): a network endpoint hosting one cohort
    replica per key range it serves, a shared write-ahead log on a dedicated
    logging device, a CPU, and an embedded coordination-service client whose
    session doubles as the node's failure detector. *)

type t

val create :
  engine:Sim.Engine.t ->
  net:Message.t Sim.Network.t ->
  zk_server:Coord.Zk_server.t ->
  partition:Partition.t ->
  config:Config.t ->
  trace:Sim.Trace.t ->
  planted_hole_ack_bug:bool ->
  shared:Cohort.shared ->
  id:int ->
  t
(** [planted_hole_ack_bug] is the fault plant every cohort this node hosts
    reads, and [shared] the cluster's one record of read counters, write
    phases and lease switch that they all update ({!Cohort.ctx}). *)

val id : t -> int

val alive : t -> bool

val start : t -> unit
(** First boot: register on the network, connect to the coordination
    service, run elections for every hosted range. *)

val crash : t -> unit
(** Lose volatile state (memtables, commit queues, unforced log tail); keep
    stable storage. The session expires after the coordination service's
    timeout, triggering failover. *)

val restart : t -> unit
(** Come back up: local recovery on every cohort, then rejoin (follower
    catch-up or election, §6.1-6.2). *)

val lose_disk : t -> unit
(** Wipe stable storage (log, SSTables, skipped-LSN lists). A subsequent
    {!restart} models a replacement node recovering entirely from peers. *)

val set_zk_reachable : t -> bool -> unit
(** Cut (or heal) this node's link to the coordination service only — the
    data network and the node itself keep running. While cut, the node's
    session stops heartbeating: the client side conservatively declares it
    dead after half the session timeout (a partitioned leader steps down,
    §7), the server expires it after the full timeout (followers elect a
    new leader), and the node keeps polling until the link heals, then
    reconnects with a fresh session and falls back in line. *)

val cohort : t -> range:int -> Cohort.t option

val cohorts : t -> (int * Cohort.t) list
(** The replicas this node currently hosts, keyed by range — changes at
    runtime as migrations and splits commit (§10). *)

val wal : t -> Storage.Wal.t

val set_txn_escalation :
  t -> (txn:string -> anchor:Storage.Row.key -> key:Storage.Row.key -> unit) -> unit
(** Install the presumed-abort escalation hook: when a leader cohort's sweep
    finds an in-doubt write intent, it calls this with the transaction, its
    coordinator anchor key, and a sample key of the stranded range. The
    cluster layer backs it with an embedded client that queries the
    coordinator ([Txn_status_req], logging an abort if no decision exists)
    and then resolves the intents. Unset, the sweep is inert. *)

val failure_target : t -> Sim.Failure.target
