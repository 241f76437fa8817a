(** Discrete-event simulation engine.

    The engine owns the virtual clock and the event queue. All other simulated
    components (network, disks, nodes) schedule closures on it. Execution is
    single-threaded and deterministic for a given seed. *)

type t

type timer
(** Handle for cancelling a scheduled event. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose clock starts at {!Sim_time.zero}.
    [seed] (default 42) seeds the root RNG. *)

val now : t -> Sim_time.t

val rng : t -> Rng.t
(** The engine's root RNG. Components should {!Rng.split} their own stream. *)

val schedule : t -> after:Sim_time.span -> (unit -> unit) -> timer
(** Run the closure [after] from now. Negative spans are clamped to zero. *)

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> timer
(** Run the closure at an absolute instant (clamped to now if in the past). *)

val cancel : t -> timer -> unit

val pending : t -> int
(** Number of live scheduled events. *)

val events_run : t -> int
(** Total events executed since [create] — the denominator for per-event cost
    accounting when hunting hot-loop overhead. *)

val step : t -> bool
(** Execute the earliest event. Returns [false] when the queue is empty. *)

val run : ?max_events:int -> t -> unit
(** Drain the event queue ([max_events] bounds runaway simulations). *)

val run_until : t -> Sim_time.t -> unit
(** Execute events up to and including instant [until]; afterwards the clock
    reads [until] even if no event fired exactly then. *)

val run_for : t -> Sim_time.span -> unit
