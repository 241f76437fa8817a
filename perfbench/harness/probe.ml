(* Host-side measurement from outside the program: a monotonic nanosecond
   clock, process CPU time, growable sample vectors, and the spans the traced
   run wraps around the benchmark's own calls into the program's layers. *)

let now_ns () = Monotonic_clock.now ()

let since_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host-speed reference. The speed of a shared virtual machine drifts by
   tens of percent over seconds to minutes, so host times of two runs are
   only comparable once each is scaled by how fast the host ran at the time.
   The reference is a fixed piece of work that belongs to the benchmark, not
   to the program, so no change to the program can move it: one sequential
   read of an 8 MiB array. On a shared x86 virtual machine the simulator's
   speed swings with the memory traffic of its neighbours; alternating
   simulator work with candidate references over minutes, the simulator's
   time divided by this read's time varied 5 to 8 times less than its bare
   time, about as well as an allocation-heavy loop and much better than
   pointer chasing or pure arithmetic. It allocates nothing, so it neither
   runs nor waits on the program's garbage collector. *)
let reference_buffer = Array.init (1 lsl 20) Fun.id

let reference_work () =
  let acc = ref 0 in
  for i = 0 to Array.length reference_buffer - 1 do
    acc := !acc + Array.unsafe_get reference_buffer i
  done;
  !acc

(* Host nanoseconds of one pass of the reference work. *)
let reference_ns () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (reference_work ()));
  since_ns t0

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort Float.compare s;
    s

  (* Nearest-rank percentile of an ascending array; 0 when empty. *)
  let rank sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

  let percentile v q = rank (sorted v) q

  let sum v =
    let s = ref 0.0 in
    for i = 0 to v.n - 1 do
      s := !s +. v.a.(i)
    done;
    !s
end

(* The layers whose calls the traced run wraps in spans. *)
type layer = Client | Txn | History | Store_get | Store_recover

let layer_name = function
  | Client -> "client"
  | Txn -> "txn"
  | History -> "history"
  | Store_get -> "store.get"
  | Store_recover -> "store.recover"

type span = { layer : layer; event : int; start_ns : int64; dur_ns : float }

(* A disabled probe costs one branch per wrapped call. Spans stay in memory
   until [write_spans]; [event] is the engine's event count at the call, the
   span's causal parent (the simulated event whose callback made it). *)
type t = {
  enabled : bool;
  engine : Sim.Engine.t;
  mutable spans : span list;
  submit : Fvec.t;
  record : Fvec.t;
  store_get : Fvec.t;
  store_recover : Fvec.t;
}

let create ~enabled engine =
  {
    enabled;
    engine;
    spans = [];
    submit = Fvec.create ();
    record = Fvec.create ();
    store_get = Fvec.create ();
    store_recover = Fvec.create ();
  }

let timed p layer f =
  if not p.enabled then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    let dur_ns = since_ns t0 in
    p.spans <- { layer; event = Sim.Engine.events_run p.engine; start_ns = t0; dur_ns } :: p.spans;
    (match layer with
    | Client | Txn -> Fvec.push p.submit dur_ns
    | History -> Fvec.push p.record dur_ns
    | Store_get -> Fvec.push p.store_get dur_ns
    | Store_recover -> Fvec.push p.store_recover dur_ns);
    r
  end

let write_spans p path =
  let oc = open_out path in
  output_string oc "layer\tparent_event\tstart_ns\tdur_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%d\t%Ld\t%.0f\n" (layer_name s.layer) s.event s.start_ns s.dur_ns)
    (List.rev p.spans);
  close_out oc
