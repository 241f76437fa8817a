type 'msg envelope = {
  src : int;
  dst : int;
  size : int;
  sent_at : Sim_time.t;
  payload : 'msg;
}

type drop_cause = Down | Partitioned | Lost

type faults = {
  loss : float;
  duplicate : float;
  jitter : Distribution.t option;
}

type 'msg endpoint = { mutable handler : 'msg envelope -> unit; mutable up : bool; nic : Resource.t }

(* One group partition, represented as the two (sorted) member lists plus
   membership tables. A nemesis toggle at n nodes used to rebuild the blocked
   refcount table with O(|a|·|b|) hashtable ops per flip; a cut is O(|a|+|b|)
   to engage and O(1) per reachability probe, and overlapping cuts compose
   the same way overlapping refcounts did. *)
type cut = {
  ga : int list;
  gb : int list;
  in_a : (int, unit) Hashtbl.t;
  in_b : (int, unit) Hashtbl.t;
}

type 'msg t = {
  engine : Engine.t;
  latency : Distribution.t;
  bandwidth_bps : int;
  rng : Rng.t;
  mutable endpoints : 'msg endpoint option array;  (* indexed by node id *)
  blocked : (int * int, int) Hashtbl.t;  (* directed (src, dst) -> refcount *)
  mutable cuts : cut list;  (* active group partitions *)
  link_faults : (int * int, faults) Hashtbl.t;  (* directed overrides *)
  mutable trace : Trace.t option;
  mutable sent : int;
  mutable in_flight : int;  (* scheduled deliveries not yet run *)
  mutable delivered : int;
  mutable dropped_down : int;
  mutable dropped_partitioned : int;
  mutable dropped_lost : int;
  mutable duplicated : int;
  mutable bytes : int;
}

let default_latency = Distribution.Shifted_exponential { base = 80.0; mean_extra = 30.0 }

let create engine ?(latency = default_latency) ?(bandwidth_bps = 1_000_000_000) () =
  {
    engine;
    latency;
    bandwidth_bps;
    rng = Rng.split (Engine.rng engine);
    endpoints = Array.make 64 None;
    blocked = Hashtbl.create 16;
    cuts = [];
    link_faults = Hashtbl.create 16;
    trace = None;
    sent = 0;
    in_flight = 0;
    delivered = 0;
    dropped_down = 0;
    dropped_partitioned = 0;
    dropped_lost = 0;
    duplicated = 0;
    bytes = 0;
  }

let attach_trace t trace = t.trace <- Some trace

(* Skip the formatting work entirely when no trace is attached. *)
let emit t fmt =
  match t.trace with
  | Some tr when Trace.is_enabled tr ->
    Printf.ksprintf (fun s -> Trace.emit tr ~tag:"net" s) fmt
  | _ -> Printf.ikfprintf ignore () fmt

(* Endpoints live in an array indexed by node id (node ids are small dense
   ints, client ids a dense block above them): the per-message endpoint
   probes on the send and deliver paths are plain loads instead of hashtable
   lookups. *)
let ensure_capacity t node =
  if node >= Array.length t.endpoints then begin
    let cap = ref (2 * Array.length t.endpoints) in
    while node >= !cap do
      cap := 2 * !cap
    done;
    let eps = Array.make !cap None in
    Array.blit t.endpoints 0 eps 0 (Array.length t.endpoints);
    t.endpoints <- eps
  end

let endpoint t node =
  if node < 0 then invalid_arg "Network.endpoint: negative node id";
  ensure_capacity t node;
  match Array.unsafe_get t.endpoints node with
  | Some e -> e
  | None ->
    let e =
      {
        handler = (fun _ -> ());
        up = false;
        nic = Resource.create t.engine ~name:(Printf.sprintf "nic-%d" node) ();
      }
    in
    t.endpoints.(node) <- Some e;
    e

let register t ~node handler =
  let e = endpoint t node in
  e.handler <- handler;
  e.up <- true

let set_up t node up = (endpoint t node).up <- up

(* Partitions are directed and reference-counted so overlapping fault
   schedules (two nemesis toggles covering the same link) compose: a link
   stays blocked until every block on it is lifted. *)
let block t pair =
  Hashtbl.replace t.blocked pair
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.blocked pair))

let unblock t pair =
  match Hashtbl.find_opt t.blocked pair with
  | None -> ()
  | Some n when n <= 1 -> Hashtbl.remove t.blocked pair
  | Some n -> Hashtbl.replace t.blocked pair (n - 1)

let severed_by cut src dst =
  (Hashtbl.mem cut.in_a src && Hashtbl.mem cut.in_b dst)
  || (Hashtbl.mem cut.in_b src && Hashtbl.mem cut.in_a dst)

let reachable t src dst =
  (* Fast path first: probing [blocked] costs a tuple allocation plus a
     polymorphic hash, which the fault-free common case should not pay. *)
  (Hashtbl.length t.blocked = 0 || not (Hashtbl.mem t.blocked (src, dst)))
  && (match t.cuts with
     | [] -> true
     | cuts -> src = dst || not (List.exists (fun c -> severed_by c src dst) cuts))

let count_drop t = function
  | Down -> t.dropped_down <- t.dropped_down + 1
  | Partitioned -> t.dropped_partitioned <- t.dropped_partitioned + 1
  | Lost -> t.dropped_lost <- t.dropped_lost + 1

let transfer_span t size =
  Sim_time.of_us_f (float_of_int (size * 8) /. float_of_int t.bandwidth_bps *. 1e6)

let faults_for t src dst =
  if Hashtbl.length t.link_faults = 0 then None
  else Hashtbl.find_opt t.link_faults (src, dst)

(* Transit spans make the trace a causal graph: the span starts on the
   sender's track (node = src) when the message is handed to the NIC and
   ends on the receiver's track (node = dst) just before the handler runs,
   so any receiver span causally follows the transit end. Only messages
   carrying a request-scoped [trace_id] are instrumented; opening a span
   never schedules events or draws randomness, so delivery order and RNG
   streams are identical with tracing on or off. *)
let start_transit t ~trace_id ~src =
  match t.trace with
  | Some tr when trace_id >= 0 && Trace.is_enabled tr ->
    Trace.span_start tr ~trace_id ~node:src ~tag:"net.transit" ""
  | _ -> 0

let end_transit t ~span ~trace_id ~dst outcome =
  if span <> 0 then
    match t.trace with
    | Some tr -> Trace.span_end tr ~span ~trace_id ~node:dst ~tag:"net.transit" outcome
    | None -> ()

let deliver t ?(span = 0) ?(trace_id = -1) env =
  t.in_flight <- t.in_flight - 1;
  match
    if env.dst >= 0 && env.dst < Array.length t.endpoints then
      Array.unsafe_get t.endpoints env.dst
    else None
  with
  | None ->
    end_transit t ~span ~trace_id ~dst:env.dst "down";
    count_drop t Down
  | Some e ->
    if not e.up then begin
      end_transit t ~span ~trace_id ~dst:env.dst "down";
      count_drop t Down
    end
    else if not (reachable t env.src env.dst) then begin
      end_transit t ~span ~trace_id ~dst:env.dst "partitioned";
      count_drop t Partitioned
    end
    else begin
      end_transit t ~span ~trace_id ~dst:env.dst "delivered";
      t.delivered <- t.delivered + 1;
      e.handler env
    end

let send t ~src ~dst ?(size = 128) ?(trace_id = -1) payload =
  let sender = endpoint t src in
  t.sent <- t.sent + 1;
  if not sender.up then count_drop t Down
  else begin
    let env = { src; dst; size; sent_at = Engine.now t.engine; payload } in
    t.bytes <- t.bytes + size;
    if src = dst then begin
      let span = start_transit t ~trace_id ~src in
      t.in_flight <- t.in_flight + 1;
      ignore
        (Engine.schedule t.engine ~after:(Sim_time.us 5) (fun () ->
             deliver t ~span ~trace_id env))
    end
    else begin
      let faults = faults_for t src dst in
      (* Loss is a link property: the message is dropped in flight, after the
         sender paid for it (the sender cannot tell a lost message from a
         slow one, which is what forces retry/dedup machinery upstream). *)
      match faults with
      | Some f when f.loss > 0.0 && Rng.float t.rng 1.0 < f.loss -> count_drop t Lost
      | _ ->
        (* The NIC serialises the transfer; propagation happens afterwards.
           The NIC queue is analytic ([Resource.reserve] returns the finish
           time directly), so transfer + propagation collapse into a single
           scheduled delivery — one heap entry and one closure per message
           instead of two of each. Latency/jitter/duplication are sampled at
           send time; with a FIFO NIC the sample order per link is the same
           as it would be at transfer completion. *)
        let nic_done = Resource.reserve sender.nic ~service:(transfer_span t size) in
        let deliver_once span trace_id =
          let latency = Distribution.sample_span t.latency t.rng in
          let latency =
            match faults with
            | Some { jitter = Some j; _ } ->
              Sim_time.span_add latency (Distribution.sample_span j t.rng)
            | _ -> latency
          in
          t.in_flight <- t.in_flight + 1;
          ignore
            (Engine.schedule_at t.engine (Sim_time.add nic_done latency) (fun () ->
                 deliver t ~span ~trace_id env))
        in
        (* The span is opened after the loss draw (a lost message leaves no
           transit span — its absence is the signal) and rides only the
           primary copy; a duplicate takes its own path uninstrumented so the
           span is closed exactly once. *)
        deliver_once (start_transit t ~trace_id ~src) trace_id;
        (match faults with
        | Some f when f.duplicate > 0.0 && Rng.float t.rng 1.0 < f.duplicate ->
          (* A duplicated message takes its own independent path. *)
          t.duplicated <- t.duplicated + 1;
          deliver_once 0 (-1)
        | _ -> ())
    end
  end

let partition_oneway t ~src ~dst =
  if src <> dst then begin
    block t (src, dst);
    emit t "partition-oneway %d->%d" src dst
  end

let heal_oneway t ~src ~dst =
  unblock t (src, dst);
  emit t "heal-oneway %d->%d" src dst

let partition_pair t a b =
  if a <> b then begin
    block t (a, b);
    block t (b, a);
    emit t "partition-pair %d<->%d" a b
  end

let heal_pair t a b =
  unblock t (a, b);
  unblock t (b, a);
  emit t "heal-pair %d<->%d" a b

let member_table group =
  let h = Hashtbl.create (2 * List.length group) in
  List.iter (fun n -> Hashtbl.replace h n ()) group;
  h

let make_cut group_a group_b =
  {
    ga = List.sort_uniq compare group_a;
    gb = List.sort_uniq compare group_b;
    in_a = member_table group_a;
    in_b = member_table group_b;
  }

let partition t group_a group_b =
  t.cuts <- make_cut group_a group_b :: t.cuts;
  emit t "partition [%s]|[%s]"
    (String.concat "," (List.map string_of_int group_a))
    (String.concat "," (List.map string_of_int group_b))

let heal t =
  Hashtbl.reset t.blocked;
  t.cuts <- [];
  emit t "heal-all"

let set_link_faults t ~src ~dst ?(loss = 0.0) ?(duplicate = 0.0) ?jitter () =
  Hashtbl.replace t.link_faults (src, dst) { loss; duplicate; jitter };
  emit t "link-faults %d->%d loss=%.3f dup=%.3f" src dst loss duplicate

let clear_link_faults t ~src ~dst =
  Hashtbl.remove t.link_faults (src, dst);
  emit t "link-faults-clear %d->%d" src dst

let stats t : Metrics.net_stats =
  {
    Metrics.net_sent = t.sent;
    net_in_flight = t.in_flight;
    net_delivered = t.delivered;
    net_dropped_down = t.dropped_down;
    net_dropped_partitioned = t.dropped_partitioned;
    net_dropped_lost = t.dropped_lost;
    net_duplicated = t.duplicated;
    net_bytes = t.bytes;
  }
