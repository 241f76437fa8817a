module Partition = Spinnaker.Partition
module Config = Spinnaker.Config

type read_result = { value : string option; timestamp : int }

type op =
  | Read of { key : Storage.Row.key; col : Storage.Row.column; level : Cas_message.level }
  | Write of {
      key : Storage.Row.key;
      col : Storage.Row.column;
      value : string option;
      level : Cas_message.level;
    }

type pending = {
  op : op;
  deliver_read : (read_result option, [ `Timed_out ]) result -> unit;
  deliver_write : (unit, [ `Timed_out ]) result -> unit;
  mutable attempts : int;
  mutable timer : Sim.Engine.timer option;
}

type t = {
  id : int;
  engine : Sim.Engine.t;
  net : Cas_message.t Sim.Network.t;
  partition : Partition.t;
  config : Config.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_request : int;
  mutable rr : int;
  mutable retries : int;
}

let max_attempts = 60

let target t key =
  let range = Partition.route t.partition key in
  let members = Partition.cohort t.partition ~range in
  t.rr <- t.rr + 1;
  List.nth members (t.rr mod List.length members)

let rec dispatch t request_id p =
  let key, msg =
    match p.op with
    | Read { key; col; level } ->
      (key, Cas_message.Client_read { client = t.id; request_id; key; col; level })
    | Write { key; col; value; level } ->
      (key, Cas_message.Client_write { client = t.id; request_id; key; col; value; level })
  in
  Sim.Network.send t.net ~src:t.id ~dst:(target t key) ~size:(Cas_message.size msg) msg;
  p.timer <-
    Some
      (Sim.Engine.schedule t.engine ~after:t.config.Config.client_timeout (fun () ->
           if Hashtbl.mem t.pending request_id then begin
             p.attempts <- p.attempts + 1;
             t.retries <- t.retries + 1;
             if p.attempts >= max_attempts then begin
               Hashtbl.remove t.pending request_id;
               match p.op with
               | Read _ -> p.deliver_read (Error `Timed_out)
               | Write _ -> p.deliver_write (Error `Timed_out)
             end
             else dispatch t request_id p
           end))

let handle_reply t request_id result =
  match Hashtbl.find_opt t.pending request_id with
  | None -> ()
  | Some p ->
    (match p.timer with Some timer -> Sim.Engine.cancel t.engine timer | None -> ());
    Hashtbl.remove t.pending request_id;
    (match result with
    | `Read cell ->
      p.deliver_read
        (Ok
           (Option.map
              (fun (c : Storage.Row.cell) -> { value = c.value; timestamp = c.timestamp })
              cell))
    | `Write -> p.deliver_write (Ok ()))

let create ~engine ~net ~partition ~config ~id =
  let t =
    {
      id;
      engine;
      net;
      partition;
      config;
      pending = Hashtbl.create 64;
      next_request = 0;
      rr = id;  (* desynchronise round-robin across clients *)
      retries = 0;
    }
  in
  Sim.Network.register net ~node:id (fun env ->
      match env.Sim.Network.payload with
      | Cas_message.Read_reply { request_id; cell } -> handle_reply t request_id (`Read cell)
      | Cas_message.Write_reply { request_id } -> handle_reply t request_id `Write
      | _ -> ());
  t

let submit t op ~deliver_read ~deliver_write =
  let request_id = t.next_request in
  t.next_request <- request_id + 1;
  let p = { op; deliver_read; deliver_write; attempts = 0; timer = None } in
  Hashtbl.replace t.pending request_id p;
  dispatch t request_id p

let no_read _ = ()
let no_write _ = ()

let get t ~level key col k =
  submit t (Read { key; col; level }) ~deliver_read:k ~deliver_write:no_write

let put t ~level key col ~value k =
  submit t (Write { key; col; value = Some value; level }) ~deliver_read:no_read ~deliver_write:k

let delete t ~level key col k =
  submit t (Write { key; col; value = None; level }) ~deliver_read:no_read ~deliver_write:k
