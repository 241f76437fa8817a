module Log_record = Storage.Log_record

(* A settled outcome is held in the storage layer's terms: checkpoints store
   and catch-up ship the same values. *)
type state = In_flight | Done of Log_record.outcome

(* One client's completion record: [floor] is the highest floor the client
   has reported, by a request or through a log origin, and [outcomes]
   (newest first) holds only ids at or above it. *)
type replies = { mutable floor : int; mutable outcomes : (int * state) list }

module Client_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash c = c land max_int
end)

type t = replies Client_tbl.t

let create () = Client_tbl.create 64

let clear = Client_tbl.clear
let size t = Client_tbl.fold (fun _ r n -> n + List.length r.outcomes) t 0

let replies_of t client =
  match Client_tbl.find_opt t client with
  | Some r -> r
  | None ->
    let r = { floor = 0; outcomes = [] } in
    Client_tbl.add t client r;
    r

let raise_floor r floor =
  if floor > r.floor then begin
    r.floor <- floor;
    r.outcomes <- List.filter (fun (id, _) -> id >= floor) r.outcomes
  end

let rec outcome_in request_id = function
  | [] -> None
  | (id, state) :: rest -> if id = request_id then Some state else outcome_in request_id rest

let without request_id outcomes = List.filter (fun (id, _) -> id <> request_id) outcomes

let remember r request_id state =
  if request_id >= r.floor then r.outcomes <- (request_id, state) :: without request_id r.outcomes

type admission = Stale | Settled of Log_record.outcome | Pending | Admitted

let admit t ~client ~request_id ~floor =
  let r = replies_of t client in
  raise_floor r floor;
  if request_id < r.floor then Stale
  else
    match outcome_in request_id r.outcomes with
    | Some (Done outcome) -> Settled outcome
    | Some In_flight -> Pending
    | None ->
      r.outcomes <- (request_id, In_flight) :: r.outcomes;
      Admitted

let floor t client = (replies_of t client).floor
let record t ~client ~request_id outcome = remember (replies_of t client) request_id (Done outcome)

let settle t (origin : Log_record.origin option) outcome =
  match origin with
  | None -> ()
  | Some { client; request_id; floor } ->
    let r = replies_of t client in
    raise_floor r floor;
    remember r request_id (Done outcome)

let release t ~client ~request_id =
  match Client_tbl.find_opt t client with
  | Some r when outcome_in request_id r.outcomes = Some In_flight ->
    r.outcomes <- without request_id r.outcomes
  | _ -> ()

let mark_pending t origins =
  List.iter
    (fun { Log_record.client; request_id; _ } ->
      let r = replies_of t client in
      if outcome_in request_id r.outcomes = None then remember r request_id In_flight)
    origins

let settled t : Log_record.reply_cache =
  Client_tbl.fold
    (fun client r acc ->
      let settled =
        List.filter_map
          (function id, Done outcome -> Some (id, outcome) | _, In_flight -> None)
          r.outcomes
      in
      (client, r.floor, settled) :: acc)
    t []

let adopt t (replies : Log_record.reply_cache) =
  List.iter
    (fun (client, floor, settled) ->
      let r = replies_of t client in
      raise_floor r floor;
      List.iter (fun (request_id, outcome) -> remember r request_id (Done outcome)) settled)
    replies
