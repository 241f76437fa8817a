(** A replica's duplicate-suppression reply cache: RIFL's completion records
    (Lee et al., SOSP 2015), one per client.

    Each client's record holds its completion floor — every request id below
    it has settled at the client, so a copy arriving now is a late duplicate
    — and, newest first, the ids at or above the floor that this replica
    admitted ([In_flight]) or saw settle ([Done]). A retried write is thus
    answered with its original outcome instead of being applied twice, and
    the cache stays bounded by the clients' unsettled requests, not by how
    many writes ran. The cohort keeps it complete across crashes and leader
    changes from checkpoints, catch-up and the log's record origins. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every record (a crash). The table keeps its buckets: recovery
    re-learns about as many clients from the log as it held, so this spares
    the regrowth. *)

val size : t -> int
(** Outcomes held ([In_flight] markers and settled replies), over all
    clients. *)

type admission =
  | Stale  (** below the client's floor: a late duplicate, never executed *)
  | Settled of Storage.Log_record.outcome  (** a retry of a settled write *)
  | Pending  (** the original is still in flight; its reply answers *)
  | Admitted  (** new: now marked in flight *)

val admit : t -> client:int -> request_id:int -> floor:int -> admission
(** Raise the client's floor to [floor], then classify the write request. *)

val floor : t -> int -> int
(** The highest floor the client has reported here. *)

val record : t -> client:int -> request_id:int -> Storage.Log_record.outcome -> unit
(** The request settled with this outcome (ignored below the floor). *)

val settle : t -> Storage.Log_record.origin option -> Storage.Log_record.outcome -> unit
(** A committed record's origin settled: raise its client's floor to the
    origin's and remember the outcome. A record without an origin is a
    no-op. *)

val release : t -> client:int -> request_id:int -> unit
(** Forget the request's [In_flight] marker (its write was refused or
    dropped uncommitted), so a retry is not swallowed. A settled outcome
    stays. *)

val mark_pending : t -> Storage.Log_record.origin list -> unit
(** Mark these requests in flight unless they already have an outcome: a
    takeover re-proposes their records, and a retry must wait for them. *)

val settled : t -> Storage.Log_record.reply_cache
(** Every client's floor and settled outcomes, [In_flight] markers left
    out: what a checkpoint stores and a catch-up round ships. *)

val adopt : t -> Storage.Log_record.reply_cache -> unit
(** Merge a snapshot from {!settled}: raise each floor, remember each
    outcome. *)
