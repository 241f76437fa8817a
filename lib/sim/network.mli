(** Simulated datacenter network.

    Point-to-point messages over TCP-like links — the message layer Spinnaker
    assumes (Appendix A.1). Each message pays a propagation latency plus a
    serialisation delay on the sender's NIC (modelled as a FIFO resource so
    large transfers and high fan-out saturate a 1-GbE port, as in the paper's
    read experiments).

    The network is reliable and in-order by default, but faults can be
    injected per directed link or globally: messages to nodes that are down
    or partitioned away are silently dropped (how a crashed TCP peer looks to
    the sender), and links can additionally be configured with a loss
    probability, a duplication probability, and extra delay jitter — the
    adversary the paper's availability claims (§1.1) are made against.
    Partitions are {e directed}: [partition_oneway] blocks only one
    direction, producing the asymmetric reachability that breaks naive
    leader-ack protocols. Every drop is counted by cause. *)

type 'msg t

type 'msg envelope = {
  src : int;
  dst : int;
  size : int;  (** payload size in bytes *)
  sent_at : Sim_time.t;
  payload : 'msg;
}

val create :
  Engine.t ->
  ?latency:Distribution.t ->
  ?bandwidth_bps:int ->
  unit ->
  'msg t
(** [latency] defaults to a shifted-exponential around 100 µs (rack-local
    1-GbE RTT/2); [bandwidth_bps] defaults to 1 Gbit/s. *)

val attach_trace : 'msg t -> Trace.t -> unit
(** Emit a ["net"]-tagged trace event on every topology or fault-config
    change (not per message — chaos runs would drown the trace). *)

val register : 'msg t -> node:int -> ('msg envelope -> unit) -> unit
(** Installs the delivery handler for [node] and marks it up. Re-registering
    replaces the handler (used on node restart). *)

val send : 'msg t -> src:int -> dst:int -> ?size:int -> ?trace_id:int -> 'msg -> unit
(** [size] defaults to 128 bytes (a small control message). Self-sends are
    delivered with a minimal local delay and no NIC charge, and are exempt
    from link faults.

    When a trace is attached and [trace_id >= 0], the message gets a
    ["net.transit"] span: opened on the sender's track at send time, closed
    on the receiver's track just before the handler runs (with the outcome —
    ["delivered"], ["down"] or ["partitioned"] — as the detail), linking the
    sender's and receiver's spans into a causal graph. Lost messages leave no
    transit span; a duplicated message's extra copy is uninstrumented so the
    span closes exactly once. Tracing never schedules events or draws
    randomness, so it cannot perturb a deterministic run. *)

val set_up : 'msg t -> int -> bool -> unit
(** Mark a node up/down. Down nodes neither send nor receive. *)

(** {2 Partitions}

    Blocks are directed and reference-counted: overlapping fault schedules
    compose, and a link heals only when every block on it is lifted.
    [heal] clears everything regardless of refcounts. *)

val partition : 'msg t -> int list -> int list -> unit
(** Block delivery (both directions) between every pair drawn from the two
    groups. *)

val partition_pair : 'msg t -> int -> int -> unit
(** Block both directions between two nodes. *)

val heal_pair : 'msg t -> int -> int -> unit

val partition_oneway : 'msg t -> src:int -> dst:int -> unit
(** Block only [src]→[dst]; replies still flow. *)

val heal_oneway : 'msg t -> src:int -> dst:int -> unit

val heal : 'msg t -> unit
(** Remove all partitions, regardless of refcounts. *)

(** {2 Link faults}

    A link without a setting is perfect. Loss and duplication are
    per-message probabilities; [jitter] is sampled and added to the
    propagation latency of each delivery. *)

val set_link_faults :
  'msg t -> src:int -> dst:int ->
  ?loss:float -> ?duplicate:float -> ?jitter:Distribution.t -> unit -> unit

val clear_link_faults : 'msg t -> src:int -> dst:int -> unit

(** {2 Counters} *)

val stats : 'msg t -> Metrics.net_stats
(** Snapshot of the send/delivery/drop/duplication counters. They obey the
    accounting identity documented at {!Metrics.net_stats}. *)
