(** Chrome trace-event JSON export for {!Trace} — loadable in Perfetto
    ([ui.perfetto.dev]) or [chrome://tracing].

    Layout: one process per node ([pid] = node id; a synthetic "sim"
    process for events with no node), one track per cohort ([tid] = key range). Spans export as
    async begin/end pairs ("b"/"e") keyed by span id so a span may start and
    finish on different code paths; instants export as "i"; registry gauges
    export as counter tracks ("C"). *)

val to_json : ?registry:Metrics.Registry.t -> Trace.t -> Json.t
(** [{traceEvents; displayTimeUnit; otherData}]; pass [registry] to include
    sampled gauge series as counter tracks. ["net.transit"] spans
    additionally export as flow events ("s" on the sender's track, "f" with
    binding point "e" on the receiver's), drawing the cross-node causal
    arrows in the Perfetto UI. *)

val to_file : ?registry:Metrics.Registry.t -> Trace.t -> string -> unit

val outliers_to_json : Trace.Flight.t -> Json.t
(** One Perfetto-loadable trace holding every pinned outlier's events
    (slowest requests first), with transit flow arrows, plus an
    [otherData.outliers] summary table: [{trace_id, latency_us,
    completed_at_us, events, incomplete}] per outlier. *)
