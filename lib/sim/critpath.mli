(** Critical-path analysis over the causal trace.

    Reconstructs each request's causal DAG from the ring buffer —
    ["client.request"] and leader-side ["phase.*"] spans, ["follower.force"]
    spans, and the ["net.transit"] spans {!Network} stamps on every tagged
    message — and partitions the client-observed latency window into disjoint
    critical-path segments via a monotone milestone sweep. The sweep starts
    at the submit instant and ends exactly at the reply instant, so the
    segments sum to the end-to-end latency {e by construction} (see
    {!conservation_error}); a missing causal edge (a cumulative ack tagged
    with a newer write, an evicted event) degrades to a coarser charge and flags
    the request [incomplete] rather than mis-attributing. *)

(** One disjoint slice of a request's latency:
    - [Retry]: client-side retry/backoff (failed attempts, timeouts) plus
      final settling
    - [Transit]: network wire time on the critical path (request, propose,
      ack, reply)
    - [Queue]: leader CPU queue wait (including parking while the cohort was
      closed)
    - [Force]: leader-local log force when it was the binding branch of the
      force ∥ replication section
    - [Follower_force]: the quorum-closing follower's log force
    - [Ack_wait]: replication wait not explained by wire or follower force —
      re-proposal delay after a lost Propose, in-order quorum wait
    - [Apply]: commit apply and reply issue on the leader
    - [Read]: serving-replica read execution (CPU queue plus store probe) not
      covered by the sub-spans below — reads only
    - [Wait_lsn]: a timeline read parked until the replica's applied state
      covered the client's read-your-writes token
    - [Guard]: an unleased strong read's read-index quorum round *)
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

val all_segments : segment list
(** Canonical order. *)

val segment_name : segment -> string
(** Stable JSON/attribution key: ["retry"], ["transit"], ["queue"],
    ["force"], ["follower_force"], ["ack_wait"], ["apply"], ["read"],
    ["wait_lsn"], ["guard"]. *)

type request = {
  trace_id : int;
  client : int;
  leader : int;
  total_us : float;  (** measured client latency (submit to settle) *)
  segments : (segment * float) list;
      (** every segment in canonical order, µs; zero-duration included *)
  dominant : segment;  (** the segment with the largest share *)
  incomplete : bool;
      (** a causal edge was missing, so some charge is coarser than usual *)
}

type analysis = {
  requests : request list;
  skipped : int;
      (** traces with neither a committed-write nor a read span pattern
          (unfinished requests, evicted server-side spans) *)
  dropped : int;  (** ring-buffer events overwritten during the window *)
  incomplete : bool;  (** [dropped > 0]: attribution may be missing requests *)
}

val analyze : ?dropped:int -> events:Trace.event list -> unit -> analysis
(** Group events by trace id and analyze each. Pass [dropped] (from
    [Trace.dropped]) so the analysis honestly reports when the window lost
    events instead of silently under-counting. *)

val conservation_error : request -> float
(** [|total - Σ segments| / total]; ~0 by construction (integer-µs exact). *)

val record : Metrics.Attribution.t -> request -> unit
(** Feed one request's segments (and its total) into per-segment attribution
    histograms. *)

val to_json : analysis -> Json.t
(** Summary: [{requests, skipped, dropped_events, incomplete,
    max_conservation_error}]. *)
