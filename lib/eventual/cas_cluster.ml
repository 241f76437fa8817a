module Partition = Spinnaker.Partition
module Config = Spinnaker.Config

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  partition : Partition.t;
  net : Cas_message.t Sim.Network.t;
  nodes : Cas_node.t array;
  trace : Sim.Trace.t;
  mutable next_client : int;
}

let create engine ?anti_entropy_period config =
  let partition =
    Partition.create ~nodes:config.Config.nodes ~replication:Config.replication
      ~key_space:config.Config.key_space
  in
  let net = Sim.Network.create engine () in
  let trace = Sim.Trace.create engine in
  let nodes =
    Array.init config.Config.nodes (fun id ->
        Cas_node.create ~engine ~net ~partition ~config ~trace
          ~anti_entropy_period ~id)
  in
  { engine; config; partition; net; nodes; trace; next_client = 10_000 }

let start t = Array.iter Cas_node.start t.nodes
let config t = t.config
let partition t = t.partition
let net t = t.net
let node t i = t.nodes.(i)
let nodes t = t.nodes

let new_client t =
  let id = t.next_client in
  t.next_client <- id + 1;
  Cas_client.create ~engine:t.engine ~net:t.net ~partition:t.partition ~config:t.config ~id

let crash_node t i = Cas_node.crash t.nodes.(i)
let restart_node t i = Cas_node.restart t.nodes.(i)
let failure_targets t = Array.to_list (Array.map Cas_node.failure_target t.nodes)
