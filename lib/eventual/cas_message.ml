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
      value : string option;
      level : level;
    }
  | Read_reply of { request_id : int; cell : Storage.Row.cell option }
  | Write_reply of { request_id : int }
  | Replica_read of { req : int; coord : Storage.Row.coord; reply_to : int }
  | Replica_read_reply of { req : int; from : int; cell : Storage.Row.cell option }
  | Replica_write of {
      req : int option;
      coord : Storage.Row.coord;
      cell : Storage.Row.cell;
      reply_to : int;
    }
  | Replica_write_ack of { req : int; from : int }
  | Tree_exchange of { range : int; tree : Merkle.t; reply_to : int }
  | Tree_cells_request of { range : int; coords : Storage.Row.coord list; reply_to : int }
  | Tree_cells of { range : int; cells : (Storage.Row.coord * Storage.Row.cell) list }

let acks_needed = function One -> 1 | Quorum -> 2

let cell_size (cell : Storage.Row.cell) =
  (match cell.value with Some v -> String.length v | None -> 0) + 24

let coord_size (key, col) = String.length key + String.length col

let size = function
  | Client_read { key; col; _ } -> String.length key + String.length col + 24
  | Client_write { key; col; value; _ } ->
    String.length key + String.length col
    + (match value with Some v -> String.length v | None -> 0)
    + 24
  | Read_reply { cell; _ } -> (match cell with Some c -> cell_size c | None -> 0) + 16
  | Write_reply _ -> 16
  | Replica_read { coord; _ } -> coord_size coord + 24
  | Replica_read_reply { cell; _ } -> (match cell with Some c -> cell_size c | None -> 0) + 24
  | Replica_write { coord; cell; _ } -> coord_size coord + cell_size cell + 24
  | Replica_write_ack _ -> 24
  | Tree_exchange { tree; _ } -> 64 + (Merkle.depth tree * 32)
  | Tree_cells_request { coords; _ } ->
    List.fold_left (fun a c -> a + coord_size c) 24 coords
  | Tree_cells { cells; _ } ->
    List.fold_left (fun a (c, cell) -> a + coord_size c + cell_size cell) 24 cells
