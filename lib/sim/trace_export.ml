(* Chrome trace-event (Perfetto / chrome://tracing loadable) JSON export.

   Mapping: pid = node id (a synthetic pid for node-less events), tid =
   cohort (key range, 0 when unknown), ts = simulated microseconds.
   [Span_start]/[Span_end] become async "b"/"e" events keyed by span id so
   spans may cross nodes (e.g. a replication span that commits after acks
   arrive); instants become "i"; registry gauges become counter tracks
   ("C"). *)

let sim_pid = 9999
(* pid for events not attributed to a node (client/nemesis/global events) *)

let category_of_tag tag =
  match String.index_opt tag '.' with
  | Some i -> String.sub tag 0 i
  | None -> tag

let pid_of_node node = if node >= 0 then node else sim_pid
let tid_of_cohort cohort = if cohort >= 0 then cohort else 0

let event_json (e : Trace.event) =
  let base =
    [
      ("name", Json.String e.tag);
      ("cat", Json.String (category_of_tag e.tag));
      ("ts", Json.Int (Sim_time.time_to_us e.at));
      ("pid", Json.Int (pid_of_node e.node));
      ("tid", Json.Int (tid_of_cohort e.cohort));
    ]
  in
  let args =
    List.concat
      [
        (if String.equal e.detail "" then [] else [ ("detail", Json.String e.detail) ]);
        (if e.trace_id >= 0 then [ ("trace_id", Json.Int e.trace_id) ] else []);
        (if String.equal e.lsn "" then [] else [ ("lsn", Json.String e.lsn) ]);
      ]
  in
  let args = if args = [] then [] else [ ("args", Json.Obj args) ] in
  match e.kind with
  | Trace.Instant -> Json.Obj (base @ [ ("ph", Json.String "i"); ("s", Json.String "t") ] @ args)
  | Trace.Span_start ->
      Json.Obj (base @ [ ("ph", Json.String "b"); ("id", Json.Int e.span_id) ] @ args)
  | Trace.Span_end ->
      Json.Obj (base @ [ ("ph", Json.String "e"); ("id", Json.Int e.span_id) ] @ args)

(* Flow events ("s"/"f") synthesized from "net.transit" spans: the flow
   starts on the sender's track at send time and finishes on the receiver's
   track at delivery, drawing the cross-node arrow that turns per-node span
   tracks into a causal graph in the Perfetto UI. Flow ids reuse the span id
   (unique per trace), and binding point "e" attaches the finish to the
   enclosing slice's end. *)
let flow_json (e : Trace.event) =
  let base =
    [
      ("name", Json.String e.tag);
      ("cat", Json.String (category_of_tag e.tag));
      ("id", Json.Int e.span_id);
      ("ts", Json.Int (Sim_time.time_to_us e.at));
      ("pid", Json.Int (pid_of_node e.node));
      ("tid", Json.Int (tid_of_cohort e.cohort));
    ]
  in
  match e.kind with
  | Trace.Span_start -> Some (Json.Obj (base @ [ ("ph", Json.String "s") ]))
  | Trace.Span_end ->
    Some (Json.Obj (base @ [ ("ph", Json.String "f"); ("bp", Json.String "e") ]))
  | Trace.Instant -> None

let is_transit (e : Trace.event) = String.equal e.tag "net.transit"

let process_name_json pid name =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("ts", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let counter_json ~pid ~name (ts, v) =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String "gauge");
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("value", Json.Int v) ]);
    ]

let to_json ?registry trace =
  let pids = Hashtbl.create 16 in
  let note_pid pid = if not (Hashtbl.mem pids pid) then Hashtbl.add pids pid () in
  let events = ref [] in
  Trace.iter trace (fun e ->
      note_pid (pid_of_node e.node);
      if is_transit e then
        Option.iter (fun f -> events := f :: !events) (flow_json e);
      events := event_json e :: !events);
  let gauge_events =
    match registry with
    | None -> []
    | Some reg ->
        List.concat_map
          (fun g ->
            let pid = pid_of_node (Metrics.Gauge.node g) in
            note_pid pid;
            List.map (counter_json ~pid ~name:(Metrics.Gauge.name g)) (Metrics.Gauge.points g))
          (Metrics.Registry.gauges reg)
  in
  let metadata =
    Hashtbl.fold
      (fun pid () acc ->
        let name = if pid = sim_pid then "sim" else Printf.sprintf "node %d" pid in
        process_name_json pid name :: acc)
      pids []
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ List.rev !events @ gauge_events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("dropped_events", Json.Int (Trace.dropped trace));
            ("retained_events", Json.Int (Trace.length trace));
          ] );
    ]

let to_file ?registry trace path = Json.to_file path (to_json ?registry trace)

(* ------------------------------------------------------------------ *)
(* Flight-recorder outlier export: one Perfetto-loadable trace holding the
   pinned events of every outlier (each request's events already carry its
   trace_id in args, and net.transit spans get flow arrows), plus an
   [otherData.outliers] summary table for programmatic consumers. *)

let outlier_json (o : Trace.Flight.outlier) =
  Json.Obj
    [
      ("trace_id", Json.Int o.Trace.Flight.trace_id);
      ("latency_us", Json.Float o.latency_us);
      ("completed_at_us", Json.Int (Sim_time.time_to_us o.completed_at));
      ("events", Json.Int (List.length o.events));
      ("incomplete", Json.Bool o.incomplete);
    ]

let outliers_to_json flight =
  let outliers = Trace.Flight.outliers flight in
  let pids = Hashtbl.create 16 in
  let note_pid pid = if not (Hashtbl.mem pids pid) then Hashtbl.add pids pid () in
  let events = ref [] in
  List.iter
    (fun (o : Trace.Flight.outlier) ->
      List.iter
        (fun (e : Trace.event) ->
          note_pid (pid_of_node e.node);
          if is_transit e then
            Option.iter (fun f -> events := f :: !events) (flow_json e);
          events := event_json e :: !events)
        o.Trace.Flight.events)
    outliers;
  let metadata =
    Hashtbl.fold
      (fun pid () acc ->
        let name = if pid = sim_pid then "sim" else Printf.sprintf "node %d" pid in
        process_name_json pid name :: acc)
      pids []
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ List.rev !events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("pinned", Json.Int (List.length outliers));
            ("outliers", Json.List (List.map outlier_json outliers));
          ] );
    ]
