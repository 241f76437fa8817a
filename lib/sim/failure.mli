(** Fault injection — the nemesis.

    Drives crash/restart closures exposed by simulated processes and
    engage/disengage network faults. A crash loses volatile state but keeps
    stable storage; a [Destroy] additionally wipes stable storage (the
    double-disk-failure scenario of §1.1); the [chaos] schedules generate
    exponential fault/repair processes per target.

    Every injection is a first-class, serializable event: a {!fault} names
    its subject by label (targets and toggles self-register on first use),
    the whole run's {!injections} log is a replayable {!schedule}, and
    {!apply} re-executes an explicit schedule — seed-free — against any run
    that registered the same labels. [Sim.Json] round-trips schedules so a
    failing run's minimal fault schedule persists as a CI artifact
    ({!json_of_schedule}/{!schedule_of_json}). All randomness is drawn from
    a stream split off the engine's seeded RNG at {!create} time. *)

type target = {
  label : string;
  crash : unit -> unit;
  restart : unit -> unit;
  lose_disk : unit -> unit;  (** wipe stable storage; only sensible while crashed *)
}

type toggle = {
  t_label : string;
  engage : unit -> unit;
  disengage : unit -> unit;
}
(** A reversible fault: a partition, a lossy-link episode, a
    coordination-service cut. Composable with crash {!chaos} over the same
    run. *)

(** {2 Injections as data} *)

type fault_kind = Crash | Restart | Destroy | Engage | Disengage

type fault = { kind : fault_kind; who : string }
(** [who] is the target's [label] or the toggle's [t_label]. *)

type injection = { at : Sim_time.t; fault : fault }

type schedule = injection list
(** Chronological (oldest first). At equal timestamps, list order is
    execution order — the engine's event heap is FIFO per instant. *)

val kind_to_string : fault_kind -> string

val json_of_schedule : schedule -> Json.t
(** [[{at_us, kind, who}, ...]]. *)

val schedule_of_json : Json.t -> (schedule, string) result

type t

val create : Engine.t -> t

val injections : t -> schedule
(** What was injected and when, oldest first — the replayable record of the
    run. Replaying it with {!apply} appends the same entries to the new
    nemesis's log, so a replayed run's log equals its input schedule. *)

val pp_injections : Format.formatter -> t -> unit
(** The injection log, one line per event — printed by failing chaos tests so
    the schedule that broke the protocol is visible without re-tracing. *)

(** {2 Label registry and replay} *)

val register_target : t -> target -> unit
(** Make [target] resolvable by label for {!apply}. The [crash_at] family
    registers its subject automatically; pre-register the full universe when
    a schedule may name subjects the current run never drew. *)

val register_toggle : t -> toggle -> unit

exception Unresolved_label of fault

val apply : t -> schedule -> unit
(** Schedule every injection at its recorded instant, resolving labels
    through the registry. Raises {!Unresolved_label} (before scheduling
    anything) if a fault names an unregistered subject. *)

(** {2 Fault-exposure accounting} *)

val exposure : t -> (string * int) list
(** Injections fired so far, by kind: [crashes], [restarts], [destroys],
    [engages], [disengages], plus [zk_cuts] (engages of toggles labelled for
    the coordination service). How much chaos the run actually absorbed. *)

val attach_metrics : t -> Metrics.Registry.t -> unit
(** Register one [nemesis_<kind>] gauge per exposure counter (node [-1],
    cluster-wide) so the periodic sampler time-lines the chaos dose. *)

(** {2 Crash faults} *)

val crash_at : t -> Sim_time.t -> target -> unit

val restart_at : t -> Sim_time.t -> target -> unit

val crash_for : t -> at:Sim_time.t -> down_for:Sim_time.span -> target -> unit

val chaos :
  t ->
  mean_time_to_failure:Sim_time.span ->
  mean_time_to_repair:Sim_time.span ->
  until:Sim_time.t ->
  target list ->
  unit
(** Schedule an independent random crash/repair process for each target, with
    exponential inter-failure and repair times (clamped to >= 1 µs so a
    repair never lands on the crash's own timestamp), stopping at [until].
    The whole timeline is drawn eagerly at call time: the schedule is a pure
    function of the seed. *)

val hazard_crash_chaos :
  t ->
  period:Sim_time.span ->
  p_per_tick:float ->
  ?multiplier:(unit -> float) ->
  ?max_concurrent:int ->
  mean_time_to_repair:Sim_time.span ->
  until:Sim_time.t ->
  target list ->
  unit
(** Conditional failure multipliers: every [period], each up target crashes
    with probability [p_per_tick *. multiplier ()], restarting after an
    exponential repair. [multiplier] reads live signals at the tick — e.g.
    spike the hazard while a migration or compaction is in flight — which a
    seed-only replay cannot reproduce; the injections that actually fire are
    logged, so the run replays from its explicit {!schedule} instead.
    [max_concurrent] caps how many of [targets] this process holds down at
    once (default unlimited). RNG draws happen for every target every tick
    regardless of suppression, so consumed randomness does not depend on
    live state. *)

(** {2 Reversible faults} *)

val toggle : label:string -> engage:(unit -> unit) -> disengage:(unit -> unit) -> toggle

val toggle_for : t -> at:Sim_time.t -> down_for:Sim_time.span -> toggle -> unit
(** Engage at [at], disengage [down_for] later. *)

val toggle_chaos :
  t ->
  mean_time_to_fault:Sim_time.span ->
  mean_time_to_heal:Sim_time.span ->
  until:Sim_time.t ->
  toggle list ->
  unit
(** Independent exponential engage/disengage process per toggle, like
    {!chaos} for reversible faults. Composable with {!chaos} on the same
    nemesis (both draw from the same logged, seeded stream). *)

(** {2 Ready-made network scenarios} *)

val pair_partition_toggle : 'msg Network.t -> int -> int -> toggle
(** Symmetric two-node split, labelled ["pair-partition a<->b"] with the
    pair in canonical (ascending) order — the same toggles
    {!random_pair_partition_chaos} synthesizes, exposed so replay harnesses
    can pre-register the full pair universe. *)

val oneway_toggle : ?label:string -> 'msg Network.t -> src:int -> dst:int -> toggle
(** Asymmetric partition: [src]'s messages to [dst] are dropped while the
    reverse direction still flows. *)

val link_faults_toggle :
  ?label:string ->
  'msg Network.t ->
  ?loss:float ->
  ?duplicate:float ->
  ?jitter:Distribution.t ->
  int list ->
  toggle
(** Message loss / duplication / delay jitter on every directed link among
    [nodes] while engaged. *)

val random_pair_partition_chaos :
  t ->
  'msg Network.t ->
  nodes:int list ->
  mean_time_to_fault:Sim_time.span ->
  mean_time_to_heal:Sim_time.span ->
  until:Sim_time.t ->
  unit
(** Jepsen-style randomized partition/heal process: at exponential intervals
    pick a random pair of nodes and partition it (symmetric or one-way, coin
    flip), healing after an exponential episode length. All transitions are
    logged and the synthesized toggles registered, so the run replays. *)
