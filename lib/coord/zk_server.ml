type session = {
  id : int;
  owner : string;
  mutable last_seen : Sim.Sim_time.t;
}

type t = {
  engine : Sim.Engine.t;
  tree : Ztree.t;
  session_timeout : Sim.Sim_time.span;
  sessions : (int, session) Hashtbl.t;  (* live sessions only *)
  mutable next_session : int;
  node_watches : (string, (unit -> unit) list) Hashtbl.t;
  child_watches : (string, (unit -> unit) list) Hashtbl.t;
  mutable trace : Sim.Trace.t option;
}

let engine t = t.engine
let session_timeout t = t.session_timeout
let attach_trace t trace = t.trace <- Some trace

(* Datastore nodes own their sessions as "node-%d"; recovering the node id
   lets lifecycle events land on that node's track in the exported trace. *)
let node_of_owner owner =
  match String.index_opt owner '-' with
  | Some i when String.length owner > i + 1 && String.sub owner 0 i = "node" -> (
      match int_of_string_opt (String.sub owner (i + 1) (String.length owner - i - 1)) with
      | Some id -> id
      | None -> -1)
  | _ -> -1

let lifecycle t ?(node = -1) ~tag detail =
  match t.trace with
  | None -> ()
  | Some trace -> Sim.Trace.event trace ~node ~tag detail

let fire table path =
  match Hashtbl.find_opt table path with
  | None -> ()
  | Some watchers ->
    Hashtbl.remove table path;
    List.iter (fun w -> w ()) (List.rev watchers)

let notify_created_or_deleted t path =
  fire t.node_watches path;
  fire t.child_watches (Ztree.parent_path path)

let expire_session t session =
  if Hashtbl.mem t.sessions session.id then begin
    Hashtbl.remove t.sessions session.id;
    lifecycle t ~node:(node_of_owner session.owner) ~tag:"zk.session_expired"
      (Printf.sprintf "session=%d owner=%s" session.id session.owner);
    let ephemerals = Ztree.ephemerals_of_session t.tree ~session:session.id in
    List.iter
      (fun path ->
        Ztree.delete_recursive t.tree ~path;
        lifecycle t ~node:(node_of_owner session.owner) ~tag:"zk.znode_deleted"
          (Printf.sprintf "%s (session %d expired)" path session.id);
        notify_created_or_deleted t path)
      ephemerals
  end

(* Sessions that fall due in one sweep expire in deadline order (the one
   heard from least recently first, ties by id). Their watch notifications
   draw latencies from the watchers' RNG streams in this order, so it must
   not depend on the session table's layout, which every other session
   shapes. *)
let sweep t =
  let now = Sim.Engine.now t.engine in
  let due =
    Hashtbl.fold
      (fun _ s acc ->
        if Sim.Sim_time.(add s.last_seen t.session_timeout < now) then s :: acc
        else acc)
      t.sessions []
  in
  let by_deadline a b =
    match Sim.Sim_time.compare a.last_seen b.last_seen with 0 -> Int.compare a.id b.id | c -> c
  in
  List.iter (expire_session t) (List.sort by_deadline due)

let create engine ?(session_timeout = Sim.Sim_time.sec 2) () =
  let t =
    {
      engine;
      tree = Ztree.create ();
      session_timeout;
      sessions = Hashtbl.create 32;
      next_session = 1;
      node_watches = Hashtbl.create 32;
      child_watches = Hashtbl.create 32;
      trace = None;
    }
  in
  let sweep_every = Sim.Sim_time.us (Stdlib.max 1 (Sim.Sim_time.to_us session_timeout / 4)) in
  let rec tick () =
    sweep t;
    ignore (Sim.Engine.schedule engine ~after:sweep_every tick)
  in
  ignore (Sim.Engine.schedule engine ~after:sweep_every tick);
  t

let open_session ?(owner = "") t =
  let id = t.next_session in
  t.next_session <- id + 1;
  Hashtbl.replace t.sessions id { id; owner; last_seen = Sim.Engine.now t.engine };
  lifecycle t ~node:(node_of_owner owner) ~tag:"zk.session_created"
    (Printf.sprintf "session=%d owner=%s" id owner);
  id

let heartbeat t ~session =
  match Hashtbl.find_opt t.sessions session with
  | Some s -> s.last_seen <- Sim.Engine.now t.engine
  | None -> ()

let close_session t ~session =
  match Hashtbl.find_opt t.sessions session with
  | Some s -> expire_session t s
  | None -> ()

let session_count t = Hashtbl.length t.sessions

let session_live t ~session = Hashtbl.mem t.sessions session

let owner_node t ~session =
  match Hashtbl.find_opt t.sessions session with
  | Some s -> node_of_owner s.owner
  | None -> -1

let create_node t ~session ~path ~data ~ephemeral ~sequential =
  heartbeat t ~session;
  let mode = if ephemeral then Ztree.Ephemeral session else Ztree.Persistent in
  match Ztree.create_node t.tree ~path ~data ~mode ~sequential with
  | Ok actual ->
    lifecycle t ~node:(owner_node t ~session) ~tag:"zk.znode_created"
      (if ephemeral then actual ^ " (ephemeral)" else actual);
    notify_created_or_deleted t actual;
    Ok actual
  | Error _ as e -> e

let delete_node t ~session ~path =
  heartbeat t ~session;
  match Ztree.delete_node t.tree ~path with
  | Ok () ->
    lifecycle t ~node:(owner_node t ~session) ~tag:"zk.znode_deleted" path;
    notify_created_or_deleted t path;
    Ok ()
  | Error _ as e -> e

let exists t ~path = Ztree.exists t.tree ~path
let get_data t ~path = Ztree.get_data t.tree ~path

let set_data t ~session ~path ~data =
  heartbeat t ~session;
  match Ztree.set_data t.tree ~path ~data with
  | Ok () ->
    fire t.node_watches path;
    Ok ()
  | Error _ as e -> e

let children t ~path = Ztree.children t.tree ~path

let incr_counter t ~session ~path =
  heartbeat t ~session;
  let current =
    match Ztree.get_data t.tree ~path with
    | Ok data -> ( match int_of_string_opt data with Some v -> v | None -> 0)
    | Error _ -> 0
  in
  let next = current + 1 in
  (match Ztree.set_data t.tree ~path ~data:(string_of_int next) with
  | Ok () -> ()
  | Error _ ->
    ignore
      (Ztree.create_node t.tree ~path ~data:(string_of_int next) ~mode:Ztree.Persistent
         ~sequential:false));
  fire t.node_watches path;
  next

let add_watch table path w =
  let existing = Option.value ~default:[] (Hashtbl.find_opt table path) in
  Hashtbl.replace table path (w :: existing)

let watch_node t ~path w = add_watch t.node_watches path w
let watch_children t ~path w = add_watch t.child_watches path w
