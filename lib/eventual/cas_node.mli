(** A node of the eventually consistent baseline.

    Every replica of a key can coordinate client requests for it (no leader,
    no commit queue). The node reuses the same storage engine as Spinnaker —
    memtables, SSTables, shared WAL with group commit — mirroring the paper,
    where Spinnaker was derived from the Cassandra codebase (§C). Conflicts
    resolve last-writer-wins on timestamps; background read repair and
    Merkle-tree anti-entropy pull replicas back together (§2.3). *)

type t

val create :
  engine:Sim.Engine.t ->
  net:Cas_message.t Sim.Network.t ->
  partition:Spinnaker.Partition.t ->
  config:Spinnaker.Config.t ->
  trace:Sim.Trace.t ->
  anti_entropy_period:Sim.Sim_time.span option ->
  id:int ->
  t

val start : t -> unit

val crash : t -> unit

val restart : t -> unit

val lose_disk : t -> unit

val read_local : t -> Storage.Row.coord -> Storage.Row.cell option
(** Direct inspection for tests: the newest local cell (tombstones visible). *)

val hints_queued : t -> int

val failure_target : t -> Sim.Failure.target
