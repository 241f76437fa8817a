module Row = Storage.Row
module Lsn = Storage.Lsn
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module Partition = Spinnaker.Partition
module Config = Spinnaker.Config

type pending_write = {
  needed : int;
  client : int;
  request_id : int;
  replicas : int list;
  coord : Row.coord;
  cell : Row.cell;
  mutable acked_by : int list;
  mutable replied : bool;
}

type pending_read = {
  r_needed : int;
  r_client : int;
  r_request_id : int;
  r_coord : Row.coord;
  mutable replies : (int * Row.cell option) list;
  mutable r_replied : bool;
}

type t = {
  id : int;
  engine : Sim.Engine.t;
  net : Cas_message.t Sim.Network.t;
  partition : Partition.t;
  trace : Sim.Trace.t;
  anti_entropy_period : Sim.Sim_time.span option;
  cpu : Sim.Resource.t;
  wal : Wal.t;
  stores : (int * Store.t) list;
  seqs : (int, int ref) Hashtbl.t;  (** local per-range LSN counters *)
  clock_skew_us : int;  (** LWW conflicts need imperfect clocks to matter *)
  pending_writes : (int, pending_write) Hashtbl.t;
  pending_reads : (int, pending_read) Hashtbl.t;
  pending_hints : (int, int * Row.coord * Row.cell) Hashtbl.t;  (** req -> (dst, ...) *)
  mutable next_req : int;
  mutable alive : bool;
  mutable incarnation : int;
}

let hints_queued t = Hashtbl.length t.pending_hints

let create ~engine ~net ~partition ~config ~trace ~anti_entropy_period ~id =
  let cpu = Sim.Resource.create engine ~servers:4 () in
  let disk = Sim.Resource.create engine () in
  let model = Sim.Disk_model.create config.Config.disk in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let wal = Wal.create engine ~disk ~model ~rng ~max_batch:config.Config.wal_max_batch () in
  let stores =
    List.map
      (fun range ->
        ( range,
          Store.create ~cohort:range ~wal ~newer:Row.newer_by_timestamp
            ~flush_bytes:config.Config.flush_bytes
            ~cache_capacity:config.Config.row_cache_capacity () ))
      (Partition.ranges_of_node partition ~node:id)
  in
  let seqs = Hashtbl.create 8 in
  List.iter (fun (range, _) -> Hashtbl.replace seqs range (ref 0)) stores;
  {
    id;
    engine;
    net;
    partition;
    trace;
    anti_entropy_period;
    cpu;
    wal;
    stores;
    seqs;
    clock_skew_us = Sim.Rng.int (Sim.Rng.split (Sim.Engine.rng engine)) 2000 - 1000;
    pending_writes = Hashtbl.create 64;
    pending_reads = Hashtbl.create 64;
    pending_hints = Hashtbl.create 16;
    next_req = 0;
    alive = false;
    incarnation = 0;
  }


let read_local t coord =
  let range = Partition.route t.partition (fst coord) in
  match List.assoc_opt range t.stores with
  | Some store -> Store.get store coord
  | None -> None

let local_timestamp t = Sim.Sim_time.time_to_us (Sim.Engine.now t.engine) + t.clock_skew_us

let next_lsn t range =
  let counter = Hashtbl.find t.seqs range in
  incr counter;
  Lsn.make ~epoch:0 ~seq:!counter

let send t ~dst msg =
  if t.alive then Sim.Network.send t.net ~src:t.id ~dst ~size:(Cas_message.size msg) msg

let guard t k =
  let inc = t.incarnation in
  fun x -> if t.alive && t.incarnation = inc then k x

let replicas_of t key =
  let range = Partition.route t.partition key in
  (range, Partition.cohort t.partition ~range)

(* --- replica side ---------------------------------------------------- *)

(* Replica CPU cost, in µs, to apply one replicated write. *)
let replica_write_service_us = 30.0

(* Apply a replicated cell locally: log it, force, apply to the memtable,
   then ack if the coordinator asked for one. Last-writer-wins: the store's
   [newer_by_timestamp] keeps the newest cell on overlap. *)
let replica_apply t ~req ~coord ~(cell : Row.cell) ~reply_to =
  let service = Sim.Sim_time.of_us_f replica_write_service_us in
  Sim.Resource.submit t.cpu ~service
    (guard t (fun () ->
         let range = Partition.route t.partition (fst coord) in
         match List.assoc_opt range t.stores with
         | None -> ()
         | Some store ->
           let lsn = next_lsn t range in
           let cell = { cell with lsn } in
           let key, col = coord in
           let op =
             match cell.value with
             | Some value -> Log_record.Put { key; col; value; version = cell.version }
             | None -> Log_record.Delete { key; col; version = cell.version }
           in
           Wal.append t.wal (Log_record.write ~cohort:range ~lsn ~timestamp:cell.timestamp op);
           Wal.force t.wal
             (guard t (fun () ->
                  Store.apply store ~lsn ~timestamp:cell.timestamp op;
                  match req with
                  | Some req ->
                    send t ~dst:reply_to
                      (Cas_message.Replica_write_ack { req; from = t.id })
                  | None -> ()))))

let replica_read t ~req ~coord ~reply_to =
  let service = Sim.Sim_time.of_us_f Config.read_service_us in
  Sim.Resource.submit t.cpu ~service
    (guard t (fun () ->
         let cell = read_local t coord in
         send t ~dst:reply_to (Cas_message.Replica_read_reply { req; from = t.id; cell })))

(* --- coordinator side ------------------------------------------------ *)

let coordinate_write t ~client ~request_id ~key ~col ~value ~level =
  let service = Sim.Sim_time.of_us_f Config.write_service_us in
  Sim.Resource.submit t.cpu ~service
    (guard t (fun () ->
         let _, replicas = replicas_of t key in
         let cell : Row.cell =
           { value; version = 0; lsn = Lsn.zero; timestamp = local_timestamp t; txn_ts = None }
         in
         let req = t.next_req in
         t.next_req <- req + 1;
         let pending =
           {
             needed = Cas_message.acks_needed level;
             client;
             request_id;
             replicas;
             coord = (key, col);
             cell;
             acked_by = [];
             replied = false;
           }
         in
         Hashtbl.replace t.pending_writes req pending;
         (* A write is sent to all replicas regardless of level (§9). *)
         List.iter
           (fun r ->
             send t ~dst:r
               (Cas_message.Replica_write
                  { req = Some req; coord = (key, col); cell; reply_to = t.id }))
           replicas;
         (* Hinted handoff: replicas that have not acked after a grace period
            get their write stored as a hint and replayed until delivered. *)
         ignore
           (Sim.Engine.schedule t.engine ~after:(Sim.Sim_time.ms 500)
              (guard t (fun () ->
                   match Hashtbl.find_opt t.pending_writes req with
                   | None -> ()
                   | Some p ->
                     Hashtbl.remove t.pending_writes req;
                     List.iter
                       (fun r ->
                         if not (List.mem r p.acked_by) then begin
                           let hint_req = t.next_req in
                           t.next_req <- hint_req + 1;
                           Hashtbl.replace t.pending_hints hint_req (r, p.coord, p.cell)
                         end)
                       p.replicas)))))

let write_ack t ~req ~from =
  (match Hashtbl.find_opt t.pending_writes req with
  | Some p ->
    if not (List.mem from p.acked_by) then p.acked_by <- from :: p.acked_by;
    if (not p.replied) && List.length p.acked_by >= p.needed then begin
      p.replied <- true;
      send t ~dst:p.client (Cas_message.Write_reply { request_id = p.request_id })
    end
  | None -> ());
  (* Or it may acknowledge a hint replay. *)
  match Hashtbl.find_opt t.pending_hints req with
  | Some _ -> Hashtbl.remove t.pending_hints req
  | None -> ()

let coordinate_read t ~client ~request_id ~key ~col ~level =
  match level with
  | Cas_message.One ->
    (* A weak read accesses just one replica (§9) — the coordinator itself,
       since clients route to a replica of the key. *)
    let service = Sim.Sim_time.of_us_f Config.read_service_us in
    Sim.Resource.submit t.cpu ~service
      (guard t (fun () ->
           let cell = read_local t (key, col) in
           send t ~dst:client (Cas_message.Read_reply { request_id; cell })))
  | Cas_message.Quorum ->
    (* A quorum read accesses two replicas and checks for conflicts (§9). *)
    let service = Sim.Sim_time.of_us_f (Config.read_service_us /. 2.0) in
    Sim.Resource.submit t.cpu ~service
      (guard t (fun () ->
           let _, replicas = replicas_of t key in
           let req = t.next_req in
           t.next_req <- req + 1;
           Hashtbl.replace t.pending_reads req
             {
               r_needed = 2;
               r_client = client;
               r_request_id = request_id;
               r_coord = (key, col);
               replies = [];
               r_replied = false;
             };
           List.iter
             (fun r ->
               send t ~dst:r
                 (Cas_message.Replica_read { req; coord = (key, col); reply_to = t.id }))
             replicas))

let newest cells =
  List.fold_left
    (fun best (_, cell) ->
      match (best, cell) with
      | None, Some c -> Some c
      | Some b, Some c when Row.newer_by_timestamp c b -> Some c
      | _ -> best)
    None cells

let read_reply t ~req ~from ~cell =
  match Hashtbl.find_opt t.pending_reads req with
  | None -> ()
  | Some p ->
    p.replies <- (from, cell) :: p.replies;
    let resolved = newest p.replies in
    if (not p.r_replied) && List.length p.replies >= p.r_needed then begin
      p.r_replied <- true;
      let visible =
        match resolved with
        | Some c when not (Row.is_tombstone c) -> Some c
        | _ -> None
      in
      send t ~dst:p.r_client (Cas_message.Read_reply { request_id = p.r_request_id; cell = visible })
    end;
    (* Read repair: push the resolved newest cell to any stale replier. *)
    (match resolved with
    | Some best ->
      List.iter
        (fun (r, c) ->
          let stale =
            match c with Some c -> Row.newer_by_timestamp best c | None -> true
          in
          if stale then
            send t ~dst:r
              (Cas_message.Replica_write
                 { req = None; coord = p.r_coord; cell = best; reply_to = t.id }))
        p.replies
    | None -> ());
    if List.length p.replies >= 3 then Hashtbl.remove t.pending_reads req

(* --- hint replay ------------------------------------------------------ *)

let start_hint_replay t =
  let rec loop () =
    if t.alive then begin
      Hashtbl.iter
        (fun req (dst, coord, cell) ->
          send t ~dst
            (Cas_message.Replica_write { req = Some req; coord; cell; reply_to = t.id }))
        t.pending_hints;
      ignore (Sim.Engine.schedule t.engine ~after:(Sim.Sim_time.sec 1) (guard t loop))
    end
  in
  ignore (Sim.Engine.schedule t.engine ~after:(Sim.Sim_time.sec 1) (guard t loop))

(* --- anti-entropy ------------------------------------------------------ *)

let start_anti_entropy t =
  match t.anti_entropy_period with
  | None -> ()
  | Some period ->
    let rec loop () =
      if t.alive then begin
        List.iter
          (fun (range, store) ->
            (* The range's first replica initiates tree exchanges. *)
            if Partition.primary t.partition ~range = t.id then begin
              let tree = Merkle.build (Store.all_cells store) in
              List.iter
                (fun peer ->
                  if peer <> t.id then
                    send t ~dst:peer
                      (Cas_message.Tree_exchange { range; tree; reply_to = t.id }))
                (Partition.cohort t.partition ~range)
            end)
          t.stores;
        ignore (Sim.Engine.schedule t.engine ~after:period (guard t loop))
      end
    in
    ignore (Sim.Engine.schedule t.engine ~after:period (guard t loop))

let handle_tree_exchange t ~range ~tree ~reply_to =
  match List.assoc_opt range t.stores with
  | None -> ()
  | Some store ->
    let mine = Merkle.build (Store.all_cells store) in
    let differing = Merkle.diff mine tree in
    if differing <> [] then begin
      Sim.Trace.emitf t.trace ~tag:"anti_entropy" "r%d n%d<->n%d %d coords" range t.id
        reply_to (List.length differing);
      (* Pull the peer's versions and push ours: both sides converge. *)
      send t ~dst:reply_to (Cas_message.Tree_cells_request { range; coords = differing; reply_to = t.id });
      let cells =
        List.filter_map
          (fun coord -> Option.map (fun c -> (coord, c)) (Store.get store coord))
          differing
      in
      if cells <> [] then send t ~dst:reply_to (Cas_message.Tree_cells { range; cells })
    end

let handle_tree_cells_request t ~range ~coords ~reply_to =
  match List.assoc_opt range t.stores with
  | None -> ()
  | Some store ->
    let cells =
      List.filter_map
        (fun coord -> Option.map (fun c -> (coord, c)) (Store.get store coord))
        coords
    in
    if cells <> [] then send t ~dst:reply_to (Cas_message.Tree_cells { range; cells })

let handle_tree_cells t ~range ~cells =
  ignore range;
  List.iter
    (fun (coord, (cell : Row.cell)) ->
      replica_apply t ~req:None ~coord ~cell ~reply_to:t.id)
    cells

(* --- dispatch ---------------------------------------------------------- *)

let handle t (env : Cas_message.t Sim.Network.envelope) =
  if t.alive then begin
    match env.payload with
    | Cas_message.Client_read { client; request_id; key; col; level } ->
      coordinate_read t ~client ~request_id ~key ~col ~level
    | Cas_message.Client_write { client; request_id; key; col; value; level } ->
      coordinate_write t ~client ~request_id ~key ~col ~value ~level
    | Cas_message.Replica_read { req; coord; reply_to } -> replica_read t ~req ~coord ~reply_to
    | Cas_message.Replica_read_reply { req; from; cell } -> read_reply t ~req ~from ~cell
    | Cas_message.Replica_write { req; coord; cell; reply_to } ->
      replica_apply t ~req ~coord ~cell ~reply_to
    | Cas_message.Replica_write_ack { req; from } -> write_ack t ~req ~from
    | Cas_message.Tree_exchange { range; tree; reply_to } ->
      handle_tree_exchange t ~range ~tree ~reply_to
    | Cas_message.Tree_cells_request { range; coords; reply_to } ->
      handle_tree_cells_request t ~range ~coords ~reply_to
    | Cas_message.Tree_cells { range; cells } -> handle_tree_cells t ~range ~cells
    | Cas_message.Read_reply _ | Cas_message.Write_reply _ -> ()
  end

let start t =
  t.alive <- true;
  Sim.Network.register t.net ~node:t.id (handle t);
  start_hint_replay t;
  start_anti_entropy t

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.incarnation <- t.incarnation + 1;
    Sim.Network.set_up t.net t.id false;
    Wal.crash t.wal;
    List.iter (fun (_, store) -> Store.crash store) t.stores;
    Hashtbl.reset t.pending_writes;
    Hashtbl.reset t.pending_reads;
    Hashtbl.reset t.pending_hints;
    Sim.Trace.emitf t.trace ~tag:"node_crash" "cas n%d" t.id
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    t.incarnation <- t.incarnation + 1;
    Sim.Network.register t.net ~node:t.id (handle t);
    List.iter
      (fun (range, store) ->
        let lst = Store.recover_all store in
        Hashtbl.replace t.seqs range (ref lst.Lsn.seq))
      t.stores;
    start_hint_replay t;
    start_anti_entropy t;
    Sim.Trace.emitf t.trace ~tag:"node_restart" "cas n%d" t.id
  end

let lose_disk t =
  Wal.wipe t.wal;
  List.iter (fun (_, store) -> Store.wipe store) t.stores

let failure_target t =
  Sim.Failure.
    {
      label = Printf.sprintf "cas-node-%d" t.id;
      crash = (fun () -> crash t);
      restart = (fun () -> restart t);
      lose_disk = (fun () -> lose_disk t);
    }
