(* Critical-path analysis over the causal trace.

   The trace is a causal graph: request-scoped spans on every hop
   ("client.request", the leader's "phase.*" spans, "follower.force") plus
   the "net.transit" spans Network stamps on each message, whose start sits
   on the sender's node and whose end sits on the receiver's. Reconstructing
   a request's DAG from those spans lets us answer "where did this request's
   latency actually go" — not the sum of overlapping phase durations, but a
   partition of the client-observed window into disjoint critical-path
   segments.

   The partition is a milestone sweep: a cursor starts at the request's
   submit instant and advances monotonically through the causal milestones
   (request transit arrives, write starts, the force/replication parallel
   section resolves, apply finishes, reply transit lands), charging each
   advance to one segment. Because the cursor only moves forward and finishes
   exactly at the reply instant, the segments partition the end-to-end window
   by construction — conservation (segments sum = measured latency) is exact,
   which is what makes per-segment histograms trustworthy.

   Inside the force ∥ replication parallel section the binding branch wins:
   if the local log force finished last, the whole section is leader force;
   otherwise the replication branch is walked through its own milestones —
   propose transit, follower force, ack wait (re-proposal delay plus
   quorum wait), ack transit. A missing edge (a cumulative ack tagged with a
   newer write, an event evicted from the ring) degrades to a coarser charge and flags the request, never a
   mis-attribution that still claims full detail. *)

type segment =
  | Retry
  | Transit
  | Queue
  | Force
  | Follower_force
  | Ack_wait
  | Apply
  | Read
  | Wait_lsn
  | Guard

let all_segments =
  [ Retry; Transit; Queue; Force; Follower_force; Ack_wait; Apply; Read; Wait_lsn; Guard ]

let segment_index = function
  | Retry -> 0
  | Transit -> 1
  | Queue -> 2
  | Force -> 3
  | Follower_force -> 4
  | Ack_wait -> 5
  | Apply -> 6
  | Read -> 7
  | Wait_lsn -> 8
  | Guard -> 9

let segment_name = function
  | Retry -> "retry"
  | Transit -> "transit"
  | Queue -> "queue"
  | Force -> "force"
  | Follower_force -> "follower_force"
  | Ack_wait -> "ack_wait"
  | Apply -> "apply"
  | Read -> "read"
  | Wait_lsn -> "wait_lsn"
  | Guard -> "guard"

type request = {
  trace_id : int;
  client : int;
  leader : int;
  total_us : float;
  segments : (segment * float) list;  (** all segments, canonical order, µs *)
  dominant : segment;
  incomplete : bool;
}

type analysis = {
  requests : request list;
  skipped : int;  (** traces without a full committed-write span pattern *)
  dropped : int;  (** ring-buffer events overwritten during the window *)
  incomplete : bool;  (** true iff [dropped > 0] *)
}

(* A paired span: start/end instants in µs, with the node each side ran on
   (for "net.transit" that is sender and receiver). *)
type span = { s_at : int; e_at : int; src : int; dst : int }

let pair_spans events ~tag =
  let open_spans = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if String.equal e.tag tag then
        match e.kind with
        | Trace.Span_start -> Hashtbl.replace open_spans e.span_id e
        | Trace.Span_end -> (
          match Hashtbl.find_opt open_spans e.span_id with
          | Some (s : Trace.event) ->
            Hashtbl.remove open_spans e.span_id;
            out :=
              {
                s_at = Sim_time.time_to_us s.at;
                e_at = Sim_time.time_to_us e.at;
                src = s.node;
                dst = e.node;
              }
              :: !out
          | None -> ())
        | Trace.Instant -> ())
    events;
  List.rev !out

let last_span = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let last_where pred l =
  List.fold_left (fun acc sp -> if pred sp then Some sp else acc) None l

let first_where pred l = List.find_opt pred l

(* Analyze one request's events (chronological, all sharing a trace id).
   Writes follow the force ∥ replication milestone walk; reads (requests with
   a [phase.read] span but no committed-write pattern) follow their own sweep
   over the serving replica's read span and its guard / token-wait sub-spans.
   Returns [None] for traces with neither pattern (requests whose server-side
   spans never appeared). *)
let analyze_request ~events =
  match
    List.find_opt
      (fun (e : Trace.event) ->
        e.kind = Trace.Span_start && String.equal e.tag "client.request")
      events
  with
  | None -> None
  | Some req_start -> (
    match
      List.find_opt
        (fun (e : Trace.event) ->
          e.kind = Trace.Span_end && e.span_id = req_start.span_id)
        events
    with
    | None -> None
    | Some req_end -> (
      let t0 = Sim_time.time_to_us req_start.at in
      let t1 = Sim_time.time_to_us req_end.at in
      if t1 <= t0 then None
      else
        let client = req_start.node in
        let transits = pair_spans events ~tag:"net.transit" in
        let forces = pair_spans events ~tag:"phase.force" in
        let repls = pair_spans events ~tag:"phase.replication" in
        let applies = pair_spans events ~tag:"phase.apply" in
        let ffs = pair_spans events ~tag:"follower.force" in
        let seg = Array.make 10 0.0 in
        let cursor = ref t0 in
        let incomplete = ref false in
        let advance s target =
          let target = Stdlib.min target t1 in
          if target > !cursor then begin
            seg.(segment_index s) <-
              seg.(segment_index s) +. float_of_int (target - !cursor);
            cursor := target
          end
        in
        let finish ~leader =
          advance Retry t1;
          let segments = List.map (fun s -> (s, seg.(segment_index s))) all_segments in
          let dominant =
            fst
              (List.fold_left
                 (fun (bs, bv) (s, v) -> if v > bv then (s, v) else (bs, bv))
                 (Retry, neg_infinity) segments)
          in
          Some
            {
              trace_id = req_start.trace_id;
              client;
              leader;
              total_us = float_of_int (t1 - t0);
              segments;
              dominant;
              incomplete = !incomplete;
            }
        in
        (* The last completed force/replication pair is the winning write
           attempt (a deposed leader's abandoned attempt never completes its
           spans). *)
        match (last_span forces, last_span repls) with
        | Some force, Some repl ->
          let p1 = Stdlib.min force.s_at repl.s_at in
          let p2 = Stdlib.max force.e_at repl.e_at in
          let leader = force.src in
          (* Submit -> the request transit that started the write. Everything
             before that transit left the client is retry/backoff (failed
             attempts, timeouts); the transit itself is wire time. *)
          (match last_where (fun tr -> tr.src = client && tr.e_at <= p1) transits with
          | Some tr ->
            advance Retry tr.s_at;
            advance Transit tr.e_at
          | None -> incomplete := true);
          (* Arrival -> write start: leader CPU queue (plus any parking while
             the cohort was closed). *)
          advance Queue p1;
          (* The force ∥ replication parallel section. *)
          if force.e_at >= repl.e_at then advance Force p2
          else begin
            let ack =
              last_where
                (fun tr -> tr.dst = leader && tr.src <> client && tr.s_at >= p1 && tr.e_at <= p2)
                transits
            in
            let prop_any =
              first_where
                (fun tr -> tr.src = leader && tr.dst <> client && tr.s_at >= p1 && tr.s_at < p2)
                transits
            in
            match prop_any with
            | None ->
              (* Batching tagged the propose (and its ack) with another
                 request's id: the replication wait cannot be subdivided. *)
              incomplete := true;
              advance Ack_wait p2
            | Some prop_any ->
              (* Walk the branch through the follower whose ack closed the
                 quorum; fall back to the first proposed-to follower when the
                 committing ack is a cumulative one tagged with a newer
                 write. *)
              let follower = match ack with Some a -> a.src | None -> prop_any.dst in
              let prop =
                match
                  first_where
                    (fun tr -> tr.src = leader && tr.dst = follower && tr.s_at >= p1)
                    transits
                with
                | Some p -> p
                | None -> prop_any
              in
              advance Ack_wait prop.s_at;  (* re-proposal delay *)
              advance Transit prop.e_at;
              (match
                 first_where (fun sp -> sp.src = follower && sp.s_at >= prop.s_at) ffs
               with
              | Some ff -> advance Follower_force ff.e_at
              | None -> ());
              (match ack with
              | Some a ->
                advance Ack_wait a.s_at;  (* a hole below held the ack back *)
                advance Transit a.e_at
              | None -> ());
              advance Ack_wait p2 (* in-order quorum wait *)
          end;
          (* Commit -> applied and reply issued. *)
          (match last_span applies with
          | Some ap -> advance Apply ap.e_at
          | None -> ());
          (* Reply transit back to the client; the tail to the measured end
             is client-side settling (zero on the happy path). *)
          (match last_where (fun tr -> tr.dst = client && tr.e_at <= t1) transits with
          | Some r ->
            advance Apply r.s_at;
            advance Transit r.e_at
          | None -> incomplete := true);
          finish ~leader
        | _ -> (
          (* No committed-write span pattern: a read. The last completed
             [phase.read] span is the winning attempt (earlier redirected or
             timed-out attempts land in Retry); inside it the quorum-guard
             round and the token park carry their own spans, and what remains
             is CPU queue plus serve time, charged to Read. *)
          match last_span (pair_spans events ~tag:"phase.read") with
          | None -> None
          | Some rs ->
            let server = rs.src in
            (match last_where (fun tr -> tr.src = client && tr.e_at <= rs.s_at) transits with
            | Some tr ->
              advance Retry tr.s_at;
              advance Transit tr.e_at
            | None -> incomplete := true);
            advance Read rs.s_at;
            let in_window sp = sp.s_at >= rs.s_at && sp.e_at <= rs.e_at in
            let subs =
              List.map (fun sp -> (Guard, sp))
                (List.filter in_window (pair_spans events ~tag:"read.guard"))
              @ List.map (fun sp -> (Wait_lsn, sp))
                  (List.filter in_window (pair_spans events ~tag:"read.wait_lsn"))
            in
            let subs = List.sort (fun (_, a) (_, b) -> Stdlib.compare a.s_at b.s_at) subs in
            List.iter
              (fun (k, sp) ->
                advance Read sp.s_at;
                advance k sp.e_at)
              subs;
            advance Read rs.e_at;
            (match last_where (fun tr -> tr.dst = client && tr.e_at <= t1) transits with
            | Some r ->
              advance Read r.s_at;
              advance Transit r.e_at
            | None -> incomplete := true);
            finish ~leader:server)))

let analyze ?(dropped = 0) ~events () =
  let by_trace : (int, Trace.event list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.trace_id >= 0 then
        match Hashtbl.find_opt by_trace e.trace_id with
        | Some l -> l := e :: !l
        | None ->
          Hashtbl.add by_trace e.trace_id (ref [ e ]);
          order := e.trace_id :: !order)
    events;
  let requests = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun tid ->
      let evs = List.rev !(Hashtbl.find by_trace tid) in
      match analyze_request ~events:evs with
      | Some r -> requests := r :: !requests
      | None -> incr skipped)
    (List.rev !order);
  { requests = List.rev !requests; skipped = !skipped; dropped; incomplete = dropped > 0 }

let conservation_error r =
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 r.segments in
  if r.total_us <= 0.0 then 0.0 else abs_float (r.total_us -. sum) /. r.total_us

let record attribution r =
  List.iter
    (fun (s, v) -> Metrics.Attribution.record attribution ~segment:(segment_name s) v)
    r.segments;
  Metrics.Attribution.record_total attribution r.total_us

let to_json a =
  let max_err =
    List.fold_left (fun m r -> Stdlib.max m (conservation_error r)) 0.0 a.requests
  in
  Json.Obj
    [
      ("requests", Json.Int (List.length a.requests));
      ("skipped", Json.Int a.skipped);
      ("dropped_events", Json.Int a.dropped);
      ("incomplete", Json.Bool a.incomplete);
      ("max_conservation_error", Json.Float max_err);
    ]
