type t = {
  engine : Engine.t;
  free_at : Sim_time.t array;
}

let create engine ?(servers = 1) () =
  assert (servers > 0);
  { engine; free_at = Array.make servers Sim_time.zero }

let earliest_server t =
  let best = ref 0 in
  for i = 1 to Array.length t.free_at - 1 do
    if Sim_time.(t.free_at.(i) < t.free_at.(!best)) then best := i
  done;
  !best

(* Book the job on the earliest-free server and return its finish time,
   without scheduling anything. The queue model is purely analytic (FIFO,
   no preemption), so callers that already schedule a downstream event can
   fold the completion into it instead of paying for a separate one. *)
let reserve t ~service =
  let now = Engine.now t.engine in
  let i = earliest_server t in
  let start = Sim_time.max now t.free_at.(i) in
  let finish = Sim_time.add start service in
  t.free_at.(i) <- finish;
  finish

let submit t ~service k =
  let finish = reserve t ~service in
  ignore (Engine.schedule_at t.engine finish k)
