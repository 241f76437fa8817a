(** FIFO queueing resource with one or more identical servers.

    Models a contended device — a log disk, a CPU, a NIC. Submitted jobs are
    served in order; a job's completion callback fires at
    [max(now, earliest server free) + service]. Queueing delay under load is
    what produces the latency "knee" curves of the paper's evaluation. *)

type t

val create : Engine.t -> ?servers:int -> unit -> t
(** [servers] defaults to 1. *)

val submit : t -> service:Sim_time.span -> (unit -> unit) -> unit
(** Enqueue a job with the given service time; the callback fires when the
    job completes. *)

val reserve : t -> service:Sim_time.span -> Sim_time.t
(** Book a job on the earliest-free server and return its completion time
    without scheduling an event. Lets a caller that already schedules a
    downstream event (e.g. network delivery after a NIC transfer) avoid a
    second heap entry per message. *)

val submit_bytes : t -> bytes:int -> bytes_per_sec:float -> (unit -> unit) -> unit
(** Enqueue a job whose service time is [bytes / bytes_per_sec] — models a
    bandwidth-limited transfer (e.g. shipping an SSTable snapshot). *)
