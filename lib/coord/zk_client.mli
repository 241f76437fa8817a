(** Handles to the coordination service.

    Two kinds share one link model: every request pays a one-way latency each
    way, sampled from the handle's own RNG stream, and requests over one
    handle execute at the service in issue order.

    A {e session handle} ({!t}) is what each datastore node embeds (§7.2):
    it owns a server session, so it can create ephemerals, arm watches and
    take part in elections. Responses and watch notifications are
    suppressed once the owner crashes (its session then expires and
    ephemerals disappear). A restarted node connects with a {e new}
    session. Heartbeats run automatically until [crash] or expiry.

    A {e reader} ({!reader}) is what each datastore client embeds: it only
    reads znodes ([/layout], [/ranges/<r>/leader]), so it opens no session
    and sends no heartbeats. A reader cannot be cut off or crashed (no
    fault model targets a client's link), so every read gets its
    response. *)

type t

val connect :
  Zk_server.t -> owner:string -> ?latency:Sim.Distribution.t -> unit -> t
(** [latency] is the one-way client-service delay (default ~200 µs —
    the service sits on the same rack fabric but behind its own switch hop). *)

val alive : t -> bool

val last_contact : t -> Sim.Sim_time.t
(** Time of the last successful exchange with the service (heartbeat,
    reconnect handshake, or call response). Conservative from the server's
    point of view: the server has heard from this session at least this
    recently. Leader leases are anchored to it — a lease of less than half
    the session timeout past [last_contact] lapses strictly before the
    client-side expiry that lets a new leader be elected. *)

val set_reachable : t -> bool -> unit
(** Cut (or heal) the owner's link to the coordination service, leaving the
    owner itself and the data network untouched. While unreachable: calls
    are never sent, responses and watch notifications are not delivered
    (watch events queue for replay on reconnect), and heartbeats stop — so
    the server expires the session after its timeout. The client itself
    conservatively declares the session dead once it has been out of contact
    for over half the timeout, strictly before the server-side expiry that
    lets a new leader be elected (§7). *)

val set_on_session_expiry : t -> (unit -> unit) -> unit
(** Hook invoked once when the client declares its session dead (see
    {!set_reachable}). The handle is unusable afterwards ([alive] is false);
    the owner must {!connect} a fresh session. *)

val crash : t -> unit
(** Stop heartbeating and drop pending responses; the server will expire the
    session after its timeout, deleting this client's ephemerals. *)

val create_node :
  t -> path:string -> ?data:string -> ?ephemeral:bool -> ?sequential:bool ->
  ((string, Ztree.error) result -> unit) -> unit

val delete_node : t -> path:string -> ((unit, Ztree.error) result -> unit) -> unit

val get_data : t -> path:string -> ((string, Ztree.error) result -> unit) -> unit

val set_data : t -> path:string -> data:string -> ((unit, Ztree.error) result -> unit) -> unit

val children : t -> path:string -> (((string * string) list, Ztree.error) result -> unit) -> unit

val incr_counter : t -> path:string -> (int -> unit) -> unit

val watch_node : t -> path:string -> (unit -> unit) -> unit
(** One-shot; the notification pays the service-to-client latency and is
    dropped if this handle crashed meanwhile. *)

val watch_children : t -> path:string -> (unit -> unit) -> unit

(** {2 Readers} *)

type reader

val reader : Zk_server.t -> reader
(** A session-less read handle with {!connect}'s default latency. It opens
    no server session and schedules no event until it is used. *)

val read : reader -> path:string -> ((string, Ztree.error) result -> unit) -> unit
(** {!get_data} over a reader: one round trip, FIFO with the reader's other
    reads. *)
