type timer = Event_heap.handle

type t = {
  mutable clock : Sim_time.t;
  events : (unit -> unit) Event_heap.t;
  root_rng : Rng.t;
  mutable events_run : int;
}

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    events = Event_heap.create ();
    root_rng = Rng.create seed;
    events_run = 0;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t time k =
  let time = Sim_time.max time t.clock in
  Event_heap.push t.events ~time k

let schedule t ~after k =
  let after = Sim_time.span_max after Sim_time.span_zero in
  schedule_at t (Sim_time.add t.clock after) k

let cancel t timer = Event_heap.cancel t.events timer
let pending t = Event_heap.size t.events

let events_run t = t.events_run

let step t =
  if Event_heap.normalize t.events then begin
    t.clock <- Event_heap.next_time t.events;
    let k = Event_heap.take t.events in
    t.events_run <- t.events_run + 1;
    k ();
    true
  end
  else false

let run ?(max_events = max_int) t =
  let rec loop remaining =
    if remaining > 0 && step t then loop (remaining - 1)
  in
  loop max_events

(* The hot loop: normalize once, then read the heap top in place — no
   option/tuple is allocated per event, and the top is only examined once
   (the old peek-then-pop shape re-ran the cancellation check). *)
let run_until t until =
  let rec loop () =
    if Event_heap.normalize t.events then begin
      let time = Event_heap.next_time t.events in
      if Sim_time.(time <= until) then begin
        let k = Event_heap.take t.events in
        t.clock <- time;
        t.events_run <- t.events_run + 1;
        k ();
        loop ()
      end
      else t.clock <- Sim_time.max t.clock until
    end
    else t.clock <- Sim_time.max t.clock until
  in
  loop ()

let run_for t span = run_until t (Sim_time.add t.clock span)
