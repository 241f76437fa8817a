(** The coordination service process (§4.2, §7.1).

    Holds the znode tree, client sessions, and watches. Sessions are kept
    alive by heartbeats; when one expires, its ephemeral znodes are deleted
    and the relevant watches fire — this is Spinnaker's failure detector.
    Sessions that fall due together expire in deadline order, ties by id.
    Watches are one-shot, as in Zookeeper.

    The service is modelled as a single highly available process: the paper
    treats Zookeeper (internally a replicated Paxos/ZAB ensemble) as an
    external fault-tolerant building block that is off the critical path of
    reads and writes. *)

type t

val create : Sim.Engine.t -> ?session_timeout:Sim.Sim_time.span -> unit -> t
(** [session_timeout] defaults to 2 s, the paper's Zookeeper setting (§D.1). *)

val engine : t -> Sim.Engine.t

val session_timeout : t -> Sim.Sim_time.span

val attach_trace : t -> Sim.Trace.t -> unit
(** Emit structured lifecycle events ([zk.session_created],
    [zk.session_expired], [zk.znode_created], [zk.znode_deleted]) to the
    trace. Owners named ["node-<id>"] have their events attributed to that
    node. *)

(** {2 Sessions} *)

val open_session : ?owner:string -> t -> int
(** Returns a fresh session id; the caller must heartbeat it. [owner] is a
    display name recorded in lifecycle events. *)

val heartbeat : t -> session:int -> unit
(** Any client request also counts as a heartbeat. *)

val close_session : t -> session:int -> unit
(** Graceful close: ephemerals deleted immediately. *)

val session_live : t -> session:int -> bool

val session_count : t -> int
(** Sessions the server holds: only live ones, since an expired or closed
    session is dropped. *)

(** {2 Znode operations} — synchronous; the client handle adds latency. *)

val create_node :
  t -> session:int -> path:string -> data:string -> ephemeral:bool -> sequential:bool ->
  (string, Ztree.error) result

val delete_node : t -> session:int -> path:string -> (unit, Ztree.error) result

val exists : t -> path:string -> bool

val get_data : t -> path:string -> (string, Ztree.error) result

val set_data : t -> session:int -> path:string -> data:string -> (unit, Ztree.error) result

val children : t -> path:string -> ((string * string) list, Ztree.error) result

val incr_counter : t -> session:int -> path:string -> int
(** Atomic fetch-and-increment of an integer znode, creating it at 1 if
    absent; returns the new value. Used for epoch numbers (Appendix B). *)

(** {2 Watches} — one-shot. *)

val watch_node : t -> path:string -> (unit -> unit) -> unit
(** Fires when the znode at [path] is created, deleted or its data set. *)

val watch_children : t -> path:string -> (unit -> unit) -> unit
(** Fires when a child is created or deleted under [path]. *)
