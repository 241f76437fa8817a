(* The service link both handle kinds share: one-way latency samples from
   the handle's own RNG stream, and the FIFO horizon. *)
type link = {
  server : Zk_server.t;
  engine : Sim.Engine.t;
  latency : Sim.Distribution.t;
  rng : Sim.Rng.t;
  mutable fifo_horizon : Sim.Sim_time.t;
      (** server-side execution time of the handle's latest request; later
          requests may not execute before it (ZooKeeper's FIFO client order,
          which watch-then-read patterns rely on) *)
}

type t = {
  link : link;
  owner : string;
  session : int;
  mutable alive : bool;
  mutable reachable : bool;
      (** the owner's link to the coordination service; when cut, calls,
          heartbeats, and watch deliveries are all suppressed *)
  mutable last_contact : Sim.Sim_time.t;
      (** last successful exchange with the service; basis for the client's
          conservative session-expiry detection *)
  mutable on_session_expiry : (unit -> unit) option;
  mutable pending_watches : (unit -> unit) list;
      (** watch events that fired while unreachable, newest first; replayed
          on reconnect (the service tracks watches per session, so a client
          that reconnects within its timeout still learns what changed) *)
}

type reader = link

let default_latency = Sim.Distribution.Shifted_exponential { base = 150.0; mean_extra = 50.0 }

let open_link server latency =
  let engine = Zk_server.engine server in
  { server; engine; latency; rng = Sim.Rng.split (Sim.Engine.rng engine);
    fifo_horizon = Sim.Sim_time.zero }

let delay link = Sim.Distribution.sample_span link.latency link.rng

(* One round trip: the request travels to the service, executes atomically
   there, and the response travels back. Requests over one link execute in
   issue order (TCP-like FIFO, as in ZooKeeper — the election's
   arm-watch-then-read pattern depends on it). *)
let round_trip link op k =
  let arrival =
    Sim.Sim_time.max
      (Sim.Sim_time.add (Sim.Engine.now link.engine) (delay link))
      (Sim.Sim_time.add link.fifo_horizon (Sim.Sim_time.us 1))
  in
  link.fifo_horizon <- arrival;
  ignore
    (Sim.Engine.schedule_at link.engine arrival (fun () ->
         let result = op () in
         ignore (Sim.Engine.schedule link.engine ~after:(delay link) (fun () -> k result))))

(* The client declares its own session dead once it has been out of contact
   for over half the timeout — deliberately ahead of the server, which
   expires it only after the full timeout. A partitioned leader therefore
   stops serving strictly before a new leader can be elected on the other
   side (§7). The dead session is never resumed: heartbeats stop, so the
   server expires it (and deletes its ephemerals) even if the partition heals
   meanwhile, and the owner reconnects with a fresh session. *)
let expire t =
  if t.alive then begin
    t.alive <- false;
    match t.on_session_expiry with Some f -> f () | None -> ()
  end

let heartbeat_loop t =
  let engine = t.link.engine in
  let timeout_us = Sim.Sim_time.to_us (Zk_server.session_timeout t.link.server) in
  let interval = Sim.Sim_time.us (timeout_us / 4) in
  let rec beat () =
    if t.alive then begin
      if t.reachable then begin
        Zk_server.heartbeat t.link.server ~session:t.session;
        t.last_contact <- Sim.Engine.now engine
      end
      else begin
        let silent = Sim.Sim_time.to_us (Sim.Sim_time.diff (Sim.Engine.now engine) t.last_contact) in
        if silent * 2 > timeout_us then expire t
      end;
      if t.alive then ignore (Sim.Engine.schedule engine ~after:interval beat)
    end
  in
  ignore (Sim.Engine.schedule engine ~after:interval beat)

let connect server ~owner ?(latency = default_latency) () =
  let session = Zk_server.open_session ~owner server in
  let link = open_link server latency in
  let t =
    {
      link;
      owner;
      session;
      alive = true;
      reachable = true;
      last_contact = Sim.Engine.now link.engine;
      on_session_expiry = None;
      pending_watches = [];
    }
  in
  heartbeat_loop t;
  t

let alive t = t.alive
let last_contact t = t.last_contact
let set_on_session_expiry t f = t.on_session_expiry <- Some f
let crash t = t.alive <- false

let set_reachable t r =
  if t.reachable <> r then begin
    t.reachable <- r;
    if r && t.alive then begin
      (* Reconnected: the handshake itself is contact, and queued watch
         events are delivered (one service-to-client hop late). *)
      Zk_server.heartbeat t.link.server ~session:t.session;
      t.last_contact <- Sim.Engine.now t.link.engine;
      let pending = List.rev t.pending_watches in
      t.pending_watches <- [];
      List.iter
        (fun w ->
          ignore
            (Sim.Engine.schedule t.link.engine ~after:(delay t.link) (fun () ->
                 if t.alive then w ())))
        pending
    end
  end

(* A session's round trip: both legs are suppressed if the owner crashed,
   and nothing is sent (or received) while the service is unreachable —
   callers rely on their own retries or on session expiry. *)
let call t op k =
  if t.alive && t.reachable then
    round_trip t.link op (fun result ->
        if t.alive && t.reachable then begin
          t.last_contact <- Sim.Engine.now t.link.engine;
          k result
        end)

let create_node t ~path ?(data = "") ?(ephemeral = false) ?(sequential = false) k =
  call t
    (fun () ->
      Zk_server.create_node t.link.server ~session:t.session ~path ~data ~ephemeral ~sequential)
    k

let delete_node t ~path k =
  call t (fun () -> Zk_server.delete_node t.link.server ~session:t.session ~path) k

let get_data t ~path k = call t (fun () -> Zk_server.get_data t.link.server ~path) k

let set_data t ~path ~data k =
  call t (fun () -> Zk_server.set_data t.link.server ~session:t.session ~path ~data) k

let children t ~path k = call t (fun () -> Zk_server.children t.link.server ~path) k

let incr_counter t ~path k =
  call t (fun () -> Zk_server.incr_counter t.link.server ~session:t.session ~path) k

let wrap_watch t w () =
  if t.alive then begin
    if t.reachable then
      ignore
        (Sim.Engine.schedule t.link.engine ~after:(delay t.link) (fun () ->
             if not t.alive then ()
             else if t.reachable then w ()
             else t.pending_watches <- w :: t.pending_watches))
    else t.pending_watches <- w :: t.pending_watches
  end

let watch_node t ~path w =
  call t (fun () -> Zk_server.watch_node t.link.server ~path (wrap_watch t w)) (fun () -> ())

let watch_children t ~path w =
  call t (fun () -> Zk_server.watch_children t.link.server ~path (wrap_watch t w)) (fun () -> ())

let reader server = open_link server default_latency
let read r ~path k = round_trip r (fun () -> Zk_server.get_data r.server ~path) k
