type node = Master | Slave

type write_error = Unavailable

type replica = {
  name : node;
  disk : Sim.Resource.t;
  mutable up : bool;
  mutable destroyed : bool;
  mutable log : (int * string * string) list;  (** newest first; durable *)
  mutable committed : int;
}

type t = {
  engine : Sim.Engine.t;
  model : Sim.Disk_model.t;
  rng : Sim.Rng.t;
  latency : Sim.Distribution.t;
  master : replica;
  slave : replica;
  mutable acting : node option;
  mutable next_lsn : int;
  mutable global_committed : int;  (** highest LSN ever committed *)
}

let replica_of t = function Master -> t.master | Slave -> t.slave
let other = function Master -> Slave | Slave -> Master

let create engine ?(disk = Sim.Disk_model.Magnetic) () =
  let make name =
    {
      name;
      disk = Sim.Resource.create engine ();
      up = true;
      destroyed = false;
      log = [];
      committed = 0;
    }
  in
  {
    engine;
    model = Sim.Disk_model.create disk;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    latency = Sim.Distribution.Shifted_exponential { base = 80.0; mean_extra = 30.0 };
    master = make Master;
    slave = make Slave;
    acting = Some Master;
    next_lsn = 0;
    global_committed = 0;
  }

let acting_master t = t.acting
let available_for_writes t = t.acting <> None
let committed_lsn t node = (replica_of t node).committed
let writes_committed t = t.global_committed

let lost_writes t =
  let best_surviving =
    List.fold_left
      (fun acc r -> if r.destroyed then acc else Stdlib.max acc r.committed)
      0
      [ t.master; t.slave ]
  in
  Stdlib.max 0 (t.global_committed - best_surviving)

let delay t k =
  ignore (Sim.Engine.schedule t.engine ~after:(Sim.Distribution.sample_span t.latency t.rng) k)

let force t (r : replica) k =
  Sim.Resource.submit r.disk
    ~service:(Sim.Distribution.sample_span (Sim.Disk_model.force_service t.model) t.rng)
    k

let commit r ~lsn ~key ~value =
  r.log <- (lsn, key, value) :: r.log;
  r.committed <- Stdlib.max r.committed lsn

let put t ~key ~value k =
  match t.acting with
  (* Even a rejected request takes a client round trip; answering in zero
     simulated time would let a closed-loop client spin without the clock
     advancing. *)
  | None -> delay t (fun () -> k (Error Unavailable))
  | Some m ->
    let master = replica_of t m in
    let slave = replica_of t (other m) in
    let lsn = t.next_lsn + 1 in
    t.next_lsn <- lsn;
    let finish () =
      (* The commit point: the write is durable on the acting master (and on
         the slave first, when it is up — §1.1). *)
      if master.up then begin
        commit master ~lsn ~key ~value;
        t.global_committed <- Stdlib.max t.global_committed lsn;
        k (Ok ())
      end
      else k (Error Unavailable)
    in
    if slave.up then
      (* Ship the log record; the slave forces before the master does. *)
      delay t (fun () ->
          if slave.up then begin
            force t slave (fun () ->
                if slave.up then commit slave ~lsn ~key ~value;
                delay t (fun () -> force t master finish))
          end
          else force t master finish)
    else force t master finish

let get t ~key k =
  match t.acting with
  | None -> delay t (fun () -> k None)
  | Some m ->
    let master = replica_of t m in
    delay t (fun () ->
        let value =
          if master.up then
            List.find_map (fun (_, k', v) -> if String.equal k' key then Some v else None) master.log
          else None
        in
        k value)

(* Failover policy: promote the peer only when it provably holds the latest
   committed state. A real deployment cannot know [global_committed]; this
   oracle implements the conservative behaviour (block rather than lose
   writes) that §1.1 says limits availability. *)
let try_promote t =
  let candidates = [ t.master; t.slave ] in
  t.acting <-
    List.find_map
      (fun r ->
        if r.up && (not r.destroyed) && r.committed = t.global_committed then Some r.name
        else None)
      candidates

let crash t node =
  let r = replica_of t node in
  if r.up then begin
    r.up <- false;
    if t.acting = Some node then try_promote t
  end

let restart t node =
  let r = replica_of t node in
  if (not r.up) && not r.destroyed then begin
    r.up <- true;
    match t.acting with
    | Some m when m <> node ->
      (* Rejoin as slave: resynchronise from the acting master. *)
      let master = replica_of t m in
      r.log <- master.log;
      r.committed <- master.committed
    | Some _ -> ()
    | None -> try_promote t
  end

let destroy t node =
  let r = replica_of t node in
  r.up <- false;
  r.destroyed <- true;
  r.log <- [];
  r.committed <- 0;
  if t.acting = Some node then try_promote t
