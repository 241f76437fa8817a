(** Client for the eventually consistent baseline.

    Requests are routed to one of the key's replicas (round-robin), which
    coordinates. Weak ops use consistency level ONE, quorum ops level
    QUORUM; the paper compares Spinnaker against both (§9). *)

type t

type read_result = { value : string option; timestamp : int }

val create :
  engine:Sim.Engine.t ->
  net:Cas_message.t Sim.Network.t ->
  partition:Spinnaker.Partition.t ->
  config:Spinnaker.Config.t ->
  id:int ->
  t

val get :
  t -> level:Cas_message.level -> Storage.Row.key -> Storage.Row.column ->
  ((read_result option, [ `Timed_out ]) result -> unit) -> unit

val put :
  t -> level:Cas_message.level -> Storage.Row.key -> Storage.Row.column -> value:string ->
  ((unit, [ `Timed_out ]) result -> unit) -> unit

val delete :
  t -> level:Cas_message.level -> Storage.Row.key -> Storage.Row.column ->
  ((unit, [ `Timed_out ]) result -> unit) -> unit
