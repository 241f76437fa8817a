(** Assembly of the eventually consistent baseline cluster. Unlike
    Spinnaker there are no elections: the cluster serves requests as soon as
    nodes are up. *)

type t

val create :
  Sim.Engine.t ->
  ?anti_entropy_period:Sim.Sim_time.span ->
  Spinnaker.Config.t ->
  t
(** [anti_entropy_period] defaults to off (the paper's measurements exercise
    the request path; anti-entropy is a background repair knob). *)

val start : t -> unit

val config : t -> Spinnaker.Config.t

val partition : t -> Spinnaker.Partition.t

val net : t -> Cas_message.t Sim.Network.t

val node : t -> int -> Cas_node.t

val nodes : t -> Cas_node.t array

val new_client : t -> Cas_client.t

val crash_node : t -> int -> unit

val restart_node : t -> int -> unit

val failure_targets : t -> Sim.Failure.target list
