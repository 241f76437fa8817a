(** Wire protocol of the eventually consistent baseline (§9).

    Dynamo-style: any replica of a key coordinates a request. Writes go to
    all replicas; the consistency level says how many acks gate the client
    reply (weak = ONE, quorum = TWO). Reads at ONE are served locally, at
    QUORUM two replicas are consulted and timestamps resolve conflicts. *)

type level = One | Quorum

type t =
  | Client_read of {
      client : int;
      request_id : int;
      key : Storage.Row.key;
      col : Storage.Row.column;
      level : level;
    }
  | Client_write of {
      client : int;
      request_id : int;
      key : Storage.Row.key;
      col : Storage.Row.column;
      value : string option;  (** [None] deletes *)
      level : level;
    }
  | Read_reply of { request_id : int; cell : Storage.Row.cell option }
  | Write_reply of { request_id : int }
  | Replica_read of { req : int; coord : Storage.Row.coord; reply_to : int }
  | Replica_read_reply of { req : int; from : int; cell : Storage.Row.cell option }
  | Replica_write of {
      req : int option;  (** [None] for read repair / hint replays (no ack) *)
      coord : Storage.Row.coord;
      cell : Storage.Row.cell;
      reply_to : int;
    }
  | Replica_write_ack of { req : int; from : int }
  | Tree_exchange of { range : int; tree : Merkle.t; reply_to : int }
      (** anti-entropy: sender's Merkle tree for the range *)
  | Tree_cells_request of { range : int; coords : Storage.Row.coord list; reply_to : int }
  | Tree_cells of { range : int; cells : (Storage.Row.coord * Storage.Row.cell) list }

val acks_needed : level -> int

val size : t -> int
