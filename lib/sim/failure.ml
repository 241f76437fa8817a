type target = {
  label : string;
  crash : unit -> unit;
  restart : unit -> unit;
  lose_disk : unit -> unit;
}

type toggle = {
  t_label : string;
  engage : unit -> unit;
  disengage : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* First-class injections. A fault names its subject by label, so a
   schedule is plain data: it serializes, diffs, and replays against any
   run that registered the same labels. *)

type fault_kind = Crash | Restart | Destroy | Engage | Disengage

type fault = { kind : fault_kind; who : string }

type injection = { at : Sim_time.t; fault : fault }

type schedule = injection list

let kind_to_string = function
  | Crash -> "crash"
  | Restart -> "restart"
  | Destroy -> "destroy"
  | Engage -> "engage"
  | Disengage -> "disengage"

let kind_of_string = function
  | "crash" -> Some Crash
  | "restart" -> Some Restart
  | "destroy" -> Some Destroy
  | "engage" -> Some Engage
  | "disengage" -> Some Disengage
  | _ -> None

let pp_fault ppf f = Format.fprintf ppf "%s %s" (kind_to_string f.kind) f.who

let json_of_schedule s =
  Json.List
    (List.map
       (fun { at; fault } ->
         Json.Obj
           [
             ("at_us", Json.Int (Sim_time.time_to_us at));
             ("kind", Json.String (kind_to_string fault.kind));
             ("who", Json.String fault.who);
           ])
       s)

let schedule_of_json j =
  let injection_of_json = function
    | Json.Obj _ as o -> (
      match (Json.member "at_us" o, Json.member "kind" o, Json.member "who" o) with
      | Some (Json.Int at_us), Some (Json.String kind), Some (Json.String who) -> (
        match kind_of_string kind with
        | Some kind -> Ok { at = Sim_time.at_us at_us; fault = { kind; who } }
        | None -> Error (Printf.sprintf "unknown fault kind %S" kind))
      | _ -> Error "injection needs at_us (int), kind (string), who (string)")
    | _ -> Error "injection is not an object"
  in
  match j with
  | Json.List items ->
    List.fold_left
      (fun acc item ->
        match (acc, injection_of_json item) with
        | Ok inis, Ok i -> Ok (i :: inis)
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> e)
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "schedule is not a JSON array"

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable log : injection list;  (** newest first *)
  targets : (string, target) Hashtbl.t;
  toggles : (string, toggle) Hashtbl.t;
  counts : (fault_kind, int ref) Hashtbl.t;
  mutable zk_cuts : int;
}

let create engine =
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    log = [];
    targets = Hashtbl.create 16;
    toggles = Hashtbl.create 16;
    counts = Hashtbl.create 8;
    zk_cuts = 0;
  }

let injections t = List.rev t.log

let pp_injections ppf t =
  List.iter
    (fun { at; fault } ->
      Format.fprintf ppf "%8.3fs  %a@."
        (float_of_int (Sim_time.time_to_us at) /. 1e6)
        pp_fault fault)
    (injections t)

let register_target t target = Hashtbl.replace t.targets target.label target

let register_toggle t tg = Hashtbl.replace t.toggles tg.t_label tg

(* Heuristic: coordination-service cuts are toggles named for ZooKeeper.
   Counted separately so audit reports can distinguish "the data network
   misbehaved" from "the failure detector itself was blinded". *)
let is_zk_label who =
  let who = String.lowercase_ascii who in
  let has_prefix p =
    String.length who >= String.length p && String.sub who 0 (String.length p) = p
  in
  has_prefix "zk" || has_prefix "zk-" || has_prefix "zookeeper"

let note t fault =
  t.log <- { at = Engine.now t.engine; fault } :: t.log;
  (match Hashtbl.find_opt t.counts fault.kind with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts fault.kind (ref 1));
  if fault.kind = Engage && is_zk_label fault.who then t.zk_cuts <- t.zk_cuts + 1

let count t kind =
  match Hashtbl.find_opt t.counts kind with Some r -> !r | None -> 0

let exposure t =
  [
    ("crashes", count t Crash);
    ("restarts", count t Restart);
    ("destroys", count t Destroy);
    ("engages", count t Engage);
    ("disengages", count t Disengage);
    ("zk_cuts", t.zk_cuts);
  ]

let attach_metrics t registry =
  List.iter
    (fun (name, _) ->
      ignore
        (Metrics.Registry.register_gauge registry ~node:(-1)
           ~name:(Printf.sprintf "nemesis_%s" name) (fun () ->
             List.assoc name (exposure t))))
    (exposure t)

(* Exponential samples are clamped to >= 1 µs: a zero-length interval would
   schedule a repair at the same timestamp as the fault, and the event
   queue's tie order would decide which one "wins". *)
let exp_span t mean =
  Sim_time.us (Stdlib.max 1 (int_of_float (Rng.exponential t.rng mean)))

let crash_at t time target =
  register_target t target;
  ignore
    (Engine.schedule_at t.engine time (fun () ->
         note t { kind = Crash; who = target.label };
         target.crash ()))

let restart_at t time target =
  register_target t target;
  ignore
    (Engine.schedule_at t.engine time (fun () ->
         note t { kind = Restart; who = target.label };
         target.restart ()))

let crash_for t ~at ~down_for target =
  crash_at t at target;
  restart_at t (Sim_time.add at down_for) target

let destroy_at t time target =
  register_target t target;
  ignore
    (Engine.schedule_at t.engine time (fun () ->
         note t { kind = Destroy; who = target.label };
         target.crash ();
         target.lose_disk ()))

let chaos t ~mean_time_to_failure ~mean_time_to_repair ~until targets =
  let mttf = float_of_int (Sim_time.to_us mean_time_to_failure) in
  let mttr = float_of_int (Sim_time.to_us mean_time_to_repair) in
  let schedule_target target =
    let rec next_failure from =
      let at = Sim_time.add from (exp_span t mttf) in
      if Sim_time.(at < until) then begin
        crash_at t at target;
        let back = Sim_time.add at (exp_span t mttr) in
        let back = Sim_time.min back until in
        restart_at t back target;
        next_failure back
      end
    in
    next_failure (Engine.now t.engine)
  in
  List.iter schedule_target targets

(* ------------------------------------------------------------------ *)
(* Nemesis toggles: named faults that can be engaged and disengaged —
   partitions, link loss, coordination-service cuts. Every transition is
   recorded in the injection log, so a failing chaos run replays from the
   (seed, log) pair alone. *)

let toggle ~label ~engage ~disengage = { t_label = label; engage; disengage }

let engage_at t time tg =
  register_toggle t tg;
  ignore
    (Engine.schedule_at t.engine time (fun () ->
         note t { kind = Engage; who = tg.t_label };
         tg.engage ()))

let disengage_at t time tg =
  register_toggle t tg;
  ignore
    (Engine.schedule_at t.engine time (fun () ->
         note t { kind = Disengage; who = tg.t_label };
         tg.disengage ()))

let toggle_for t ~at ~down_for tg =
  engage_at t at tg;
  disengage_at t (Sim_time.add at down_for) tg

let toggle_chaos t ~mean_time_to_fault ~mean_time_to_heal ~until toggles =
  let mttf = float_of_int (Sim_time.to_us mean_time_to_fault) in
  let mtth = float_of_int (Sim_time.to_us mean_time_to_heal) in
  let schedule_toggle tg =
    let rec next_fault from =
      let at = Sim_time.add from (exp_span t mttf) in
      if Sim_time.(at < until) then begin
        engage_at t at tg;
        let back = Sim_time.add at (exp_span t mtth) in
        let back = Sim_time.min back until in
        disengage_at t back tg;
        next_fault back
      end
    in
    next_fault (Engine.now t.engine)
  in
  List.iter schedule_toggle toggles

(* ------------------------------------------------------------------ *)
(* Replay: re-execute an explicit schedule against the registered label
   universe. Injections are scheduled in list order, so equal-timestamp
   ties resolve by list position (the event heap is FIFO per instant) —
   replaying the same schedule twice is byte-identical. *)

exception Unresolved_label of fault

let resolve t fault =
  match fault.kind with
  | Crash | Restart | Destroy -> (
    match Hashtbl.find_opt t.targets fault.who with
    | Some _ -> true
    | None -> false)
  | Engage | Disengage -> (
    match Hashtbl.find_opt t.toggles fault.who with Some _ -> true | None -> false)

let apply t schedule =
  List.iter
    (fun { at; fault } ->
      if not (resolve t fault) then raise (Unresolved_label fault);
      match fault.kind with
      | Crash -> crash_at t at (Hashtbl.find t.targets fault.who)
      | Restart -> restart_at t at (Hashtbl.find t.targets fault.who)
      | Destroy -> destroy_at t at (Hashtbl.find t.targets fault.who)
      | Engage -> engage_at t at (Hashtbl.find t.toggles fault.who)
      | Disengage -> disengage_at t at (Hashtbl.find t.toggles fault.who))
    schedule

(* ------------------------------------------------------------------ *)
(* Conditional failure multipliers. Unlike [chaos], whose whole timeline
   is drawn eagerly from the seed at setup, a hazard process decides at
   run time: every [period] it flips a coin per target whose odds are
   [p_per_tick] scaled by [multiplier ()] — a closure reading live signals
   (a migration in flight, a compaction storm). The draws happen lazily,
   but every injection that fires still lands in the log, so a failing
   hazard run shrinks and replays exactly like a planned one. *)

let hazard_crash_chaos t ~period ~p_per_tick ?(multiplier = fun () -> 1.0)
    ?(max_concurrent = max_int) ~mean_time_to_repair ~until targets =
  let mttr = float_of_int (Sim_time.to_us mean_time_to_repair) in
  List.iter (register_target t) targets;
  let down = Hashtbl.create (List.length targets) in
  let n_down () = Hashtbl.length down in
  let rec tick () =
    let now = Engine.now t.engine in
    if Sim_time.(now < until) then begin
      List.iter
        (fun target ->
          (* Draw for every target every tick, even when suppressed: the
             consumed randomness must not depend on live cluster state or
             the stream would decohere from the schedule under replay. *)
          let u = Rng.float t.rng 1.0 in
          let m = multiplier () in
          if
            (not (Hashtbl.mem down target.label))
            && n_down () < max_concurrent
            && u < p_per_tick *. m
          then begin
            Hashtbl.replace down target.label ();
            note t { kind = Crash; who = target.label };
            target.crash ();
            let back = Sim_time.min (Sim_time.add now (exp_span t mttr)) until in
            ignore
              (Engine.schedule_at t.engine back (fun () ->
                   Hashtbl.remove down target.label;
                   note t { kind = Restart; who = target.label };
                   target.restart ()))
          end)
        targets;
      ignore (Engine.schedule t.engine ~after:period tick)
    end
  in
  ignore (Engine.schedule t.engine ~after:period tick)

(* ------------------------------------------------------------------ *)
(* Ready-made network scenarios. *)

let group_label g = "[" ^ String.concat "," (List.map string_of_int g) ^ "]"

let pair_partition_toggle net a b =
  (* Canonical order, so the label is the same whichever way the pair was
     drawn — replay resolves it against a universe registered once per pair. *)
  let a, b = if a <= b then (a, b) else (b, a) in
  toggle
    ~label:(Printf.sprintf "pair-partition %d<->%d" a b)
    ~engage:(fun () -> Network.partition_pair net a b)
    ~disengage:(fun () -> Network.heal_pair net a b)

let oneway_toggle ?label net ~src ~dst =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "oneway-partition %d->%d" src dst
  in
  toggle ~label
    ~engage:(fun () -> Network.partition_oneway net ~src ~dst)
    ~disengage:(fun () -> Network.heal_oneway net ~src ~dst)

let link_faults_toggle ?label net ?(loss = 0.0) ?(duplicate = 0.0) ?jitter nodes =
  let label =
    match label with
    | Some l -> l
    | None ->
      Printf.sprintf "link-faults %s loss=%.3f dup=%.3f" (group_label nodes) loss duplicate
  in
  let each f =
    List.iter (fun a -> List.iter (fun b -> if a <> b then f a b) nodes) nodes
  in
  toggle ~label
    ~engage:(fun () ->
      each (fun src dst -> Network.set_link_faults net ~src ~dst ~loss ~duplicate ?jitter ()))
    ~disengage:(fun () -> each (fun src dst -> Network.clear_link_faults net ~src ~dst))

let random_pair_partition_chaos t net ~nodes ~mean_time_to_fault ~mean_time_to_heal ~until =
  match nodes with
  | [] | [ _ ] -> ()
  | _ ->
    let arr = Array.of_list nodes in
    let n = Array.length arr in
    let mttf = float_of_int (Sim_time.to_us mean_time_to_fault) in
    let mtth = float_of_int (Sim_time.to_us mean_time_to_heal) in
    let rec next_fault from =
      let at = Sim_time.add from (exp_span t mttf) in
      if Sim_time.(at < until) then begin
        (* Draw the pair and the flavour now so the schedule is a pure
           function of the seed (replayable from the injection log). *)
        let a = arr.(Rng.int t.rng n) in
        let b =
          let rec draw () =
            let b = arr.(Rng.int t.rng n) in
            if b = a then draw () else b
          in
          draw ()
        in
        let tg =
          if Rng.bool t.rng then pair_partition_toggle net a b
          else oneway_toggle net ~src:a ~dst:b
        in
        engage_at t at tg;
        let back = Sim_time.min (Sim_time.add at (exp_span t mtth)) until in
        disengage_at t back tg;
        next_fault back
      end
    in
    next_fault (Engine.now t.engine)
