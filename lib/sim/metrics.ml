module Histogram = struct
  type t = {
    name : string;
    mutable samples : float array;  (** insertion order, always *)
    mutable len : int;
    mutable sorted_cache : float array option;
        (** sorted snapshot of [samples.(0..len-1)]; invalidated on record so
            percentile/min/max sort once per batch of records, not per call,
            and never scramble the insertion-ordered samples *)
  }

  let create ?(name = "") () = { name; samples = [||]; len = 0; sorted_cache = None }
  let name t = t.name

  let record t v =
    if t.len = Array.length t.samples then begin
      let cap = Stdlib.max 1024 (2 * Array.length t.samples) in
      let samples = Array.make cap 0.0 in
      Array.blit t.samples 0 samples 0 t.len;
      t.samples <- samples
    end;
    t.samples.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted_cache <- None

  let record_span t s = record t (float_of_int (Sim_time.to_us s))
  let count t = t.len

  let mean t =
    if t.len = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.len - 1 do
        sum := !sum +. t.samples.(i)
      done;
      !sum /. float_of_int t.len
    end

  (* LSD radix sort on the IEEE-754 bit patterns. Non-negative finite floats
     order identically to their bit patterns, and a positive pattern fits the
     63-bit native int exactly, so byte-wise counting passes sort without any
     comparisons. Latency samples are integral microseconds, which leaves the
     low mantissa bytes constant — those passes are detected (single occupied
     bucket) and skipped, so a multi-million-sample histogram sorts in ~4
     linear passes. Falls back to [Array.sort] if any sample is negative. *)
  let radix_sort (a : float array) =
    let n = Array.length a in
    let neg = ref false in
    for i = 0 to n - 1 do
      if Array.unsafe_get a i < 0.0 then neg := true
    done;
    if !neg then Array.sort Float.compare a
    else begin
      let keys = Array.init n (fun i -> Int64.to_int (Int64.bits_of_float a.(i))) in
      let tmp = Array.make n 0 in
      let counts = Array.make 256 0 in
      let src = ref keys and dst = ref tmp in
      for pass = 0 to 7 do
        let shift = 8 * pass in
        let s = !src in
        Array.fill counts 0 256 0;
        for i = 0 to n - 1 do
          let b = (Array.unsafe_get s i lsr shift) land 0xff in
          Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
        done;
        let all_same_byte = counts.((Array.unsafe_get s 0 lsr shift) land 0xff) = n in
        if not all_same_byte then begin
          let acc = ref 0 in
          for b = 0 to 255 do
            let c = Array.unsafe_get counts b in
            Array.unsafe_set counts b !acc;
            acc := !acc + c
          done;
          let d = !dst in
          for i = 0 to n - 1 do
            let k = Array.unsafe_get s i in
            let b = (k lsr shift) land 0xff in
            let pos = Array.unsafe_get counts b in
            Array.unsafe_set counts b (pos + 1);
            Array.unsafe_set d pos k
          done;
          let t = !src in
          src := !dst;
          dst := t
        end
      done;
      let s = !src in
      (* Mask off the sign-extension [Int64.of_int] performs: the original
         pattern had bit 63 clear. *)
      for i = 0 to n - 1 do
        a.(i) <-
          Int64.float_of_bits
            (Int64.logand (Int64.of_int (Array.unsafe_get s i)) 0x7FFF_FFFF_FFFF_FFFFL)
      done
    end

  let sorted t =
    match t.sorted_cache with
    | Some a -> a
    | None ->
        let a = Array.sub t.samples 0 t.len in
        if t.len > 1 then radix_sort a;
        t.sorted_cache <- Some a;
        a

  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      let a = sorted t in
      let rank = int_of_float (ceil (p *. float_of_int t.len)) - 1 in
      let rank = Stdlib.max 0 (Stdlib.min (t.len - 1) rank) in
      a.(rank)
    end

  let min t = if t.len = 0 then 0.0 else (sorted t).(0)
  let max t = if t.len = 0 then 0.0 else (sorted t).(t.len - 1)

  let stddev t =
    if t.len < 2 then 0.0
    else begin
      let m = mean t in
      let sum = ref 0.0 in
      for i = 0 to t.len - 1 do
        let d = t.samples.(i) -. m in
        sum := !sum +. (d *. d)
      done;
      sqrt (!sum /. float_of_int t.len)
    end

  let clear t =
    t.len <- 0;
    t.sorted_cache <- None

  let samples t = Array.to_list (Array.sub t.samples 0 t.len)

  let merge a b =
    let t = create ~name:a.name () in
    for i = 0 to a.len - 1 do
      record t a.samples.(i)
    done;
    for i = 0 to b.len - 1 do
      record t b.samples.(i)
    done;
    t

  let pp_summary ppf t =
    Format.fprintf ppf "%s: n=%d mean=%.2fms p50=%.2fms p99=%.2fms" t.name (count t)
      (mean t /. 1e3)
      (percentile t 0.5 /. 1e3)
      (percentile t 0.99 /. 1e3)

  let json_summary t =
    Json.Obj
      [
        ("count", Json.Int (count t));
        ("mean_us", Json.Float (mean t));
        ("p50_us", Json.Float (percentile t 0.5));
        ("p95_us", Json.Float (percentile t 0.95));
        ("p99_us", Json.Float (percentile t 0.99));
        ("p999_us", Json.Float (percentile t 0.999));
        ("max_us", Json.Float (max t));
      ]

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.samples.(i)
    done;
    !s
end

(* Per-phase breakdown of the leader-side write path (Figure 4): CPU queue
   wait, local log force, replication (propose -> in-order quorum), and the
   commit apply + reply step. All samples are microseconds of simulated
   time, recorded by the cohort as each write moves through the pipeline. *)
module Write_phases = struct
  type t = {
    queue : Histogram.t;  (** client arrival at leader -> CPU grant *)
    force : Histogram.t;  (** log append -> local force durable *)
    replication : Histogram.t;  (** log append -> in-order quorum (commit eligible) *)
    apply : Histogram.t;  (** commit eligible -> applied and reply issued *)
    transit : Histogram.t;  (** measured one-way network time per replication message *)
  }

  let create () =
    {
      queue = Histogram.create ~name:"queue" ();
      force = Histogram.create ~name:"force" ();
      replication = Histogram.create ~name:"replication" ();
      apply = Histogram.create ~name:"apply" ();
      transit = Histogram.create ~name:"transit" ();
    }

  let merge a b =
    {
      queue = Histogram.merge a.queue b.queue;
      force = Histogram.merge a.force b.force;
      replication = Histogram.merge a.replication b.replication;
      apply = Histogram.merge a.apply b.apply;
      transit = Histogram.merge a.transit b.transit;
    }

  let clear t =
    Histogram.clear t.queue;
    Histogram.clear t.force;
    Histogram.clear t.replication;
    Histogram.clear t.apply;
    Histogram.clear t.transit

  let count t = Histogram.count t.replication

  let to_json t =
    Json.Obj
      [
        ("queue", Histogram.json_summary t.queue);
        ("force", Histogram.json_summary t.force);
        ("replication", Histogram.json_summary t.replication);
        ("apply", Histogram.json_summary t.apply);
        ("transit", Histogram.json_summary t.transit);
      ]

  let pp ppf t =
    Format.fprintf ppf
      "write phases (mean ms): queue %.2f, force %.2f, replication %.2f (transit %.2f), apply \
       %.2f (%d writes)"
      (Histogram.mean t.queue /. 1e3)
      (Histogram.mean t.force /. 1e3)
      (Histogram.mean t.replication /. 1e3)
      (Histogram.mean t.transit /. 1e3)
      (Histogram.mean t.apply /. 1e3)
      (count t)
end

(* Per-segment critical-path attribution: one histogram per named segment
   (leader queue, force, transit, ...), fed by [Critpath.record]. Kept
   string-keyed so this module does not depend on the segment enumeration —
   the analyzer owns the names, the registry owns the numbers. *)
module Attribution = struct
  type t = {
    mutable segments : (string * Histogram.t) list;  (** registration order *)
    total : Histogram.t;
  }

  let create () = { segments = []; total = Histogram.create ~name:"total" () }

  let histogram t name =
    match List.assoc_opt name t.segments with
    | Some h -> h
    | None ->
      let h = Histogram.create ~name () in
      t.segments <- t.segments @ [ (name, h) ];
      h

  let record t ~segment us = Histogram.record (histogram t segment) us
  let record_total t us = Histogram.record t.total us
  let count t = Histogram.count t.total
  let segments t = t.segments
  let total t = t.total

  (* The segment owning the largest share of total attributed time. *)
  let dominant t =
    match t.segments with
    | [] -> None
    | segs ->
      let name, sum =
        List.fold_left
          (fun (bn, bs) (name, h) ->
            let s = Histogram.sum h in
            if s > bs then (name, s) else (bn, bs))
          ("", neg_infinity) segs
      in
      if sum > 0.0 then Some name else None

  let to_json t =
    let grand = Histogram.sum t.total in
    Json.Obj
      [
        ("requests", Json.Int (count t));
        ( "dominant",
          match dominant t with Some s -> Json.String s | None -> Json.Null );
        ("total", Histogram.json_summary t.total);
        ( "segments",
          Json.Obj
            (List.map
               (fun (name, h) ->
                 let s = Histogram.sum h in
                 ( name,
                   Json.Obj
                     [
                       ("sum_us", Json.Float s);
                       ("share", Json.Float (if grand > 0.0 then s /. grand else 0.0));
                       ("mean_us", Json.Float (Histogram.mean h));
                       ("p50_us", Json.Float (Histogram.percentile h 0.5));
                       ("p99_us", Json.Float (Histogram.percentile h 0.99));
                       ("p999_us", Json.Float (Histogram.percentile h 0.999));
                     ] ))
               t.segments) );
      ]

  let pp ppf t =
    Format.fprintf ppf "attribution over %d requests:" (count t);
    let grand = Histogram.sum t.total in
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf " %s %.0f%%" name
          (if grand > 0.0 then 100.0 *. Histogram.sum h /. grand else 0.0))
      t.segments
end

module Counter = struct
  type t = { name : string; mutable value : int }

  let create ?(name = "") () = { name; value = 0 }
  let name t = t.name
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let clear t = t.value <- 0
end

(* A gauge is a named per-node callback ([unit -> int]) sampled by the
   registry's sim-time ticker into a capped time series; the cap drops the
   oldest points so week-long sim runs keep a sliding window rather than an
   unbounded history. *)
module Gauge = struct
  type t = {
    name : string;
    node : int;
    read : unit -> int;
    points : (int * int) Queue.t;  (** (sim-time µs, value), oldest first *)
    max_points : int;
    mutable dropped : int;
  }

  let name t = t.name
  let node t = t.node
  let read t = t.read ()
  let point_count t = Queue.length t.points
  let dropped t = t.dropped
  let points t = List.of_seq (Queue.to_seq t.points)

  let last t =
    Queue.fold (fun _ p -> Some p) None t.points

  let push t ~at_us v =
    if Queue.length t.points >= t.max_points then begin
      ignore (Queue.pop t.points);
      t.dropped <- t.dropped + 1
    end;
    Queue.push (at_us, v) t.points

  let to_json t =
    Json.Obj
      [
        ("name", Json.String t.name);
        ("node", Json.Int t.node);
        ("dropped_points", Json.Int t.dropped);
        ( "points",
          Json.List
            (List.map (fun (ts, v) -> Json.List [ Json.Int ts; Json.Int v ]) (points t)) );
      ]
end

module Registry = struct
  type t = {
    engine : Engine.t;
    mutable gauges : Gauge.t list;  (** newest-first; [gauges] reverses *)
    mutable counters : Counter.t list;
    mutable histograms : Histogram.t list;
    max_points : int;
    mutable sampling : bool;
    mutable samples_taken : int;
  }

  let create ?(max_points_per_gauge = 4096) engine =
    {
      engine;
      gauges = [];
      counters = [];
      histograms = [];
      max_points = Stdlib.max 1 max_points_per_gauge;
      sampling = false;
      samples_taken = 0;
    }

  let register_gauge t ~node ~name read =
    let g =
      {
        Gauge.name;
        node;
        read;
        points = Queue.create ();
        max_points = t.max_points;
        dropped = 0;
      }
    in
    t.gauges <- g :: t.gauges;
    g

  let counter t ~name =
    match List.find_opt (fun c -> String.equal (Counter.name c) name) t.counters with
    | Some c -> c
    | None ->
        let c = Counter.create ~name () in
        t.counters <- c :: t.counters;
        c

  let histogram t ~name =
    match List.find_opt (fun h -> String.equal (Histogram.name h) name) t.histograms with
    | Some h -> h
    | None ->
        let h = Histogram.create ~name () in
        t.histograms <- h :: t.histograms;
        h

  let gauges t = List.rev t.gauges
  let counters t = List.rev t.counters
  let histograms t = List.rev t.histograms
  let samples_taken t = t.samples_taken

  let sample t =
    let at_us = Sim_time.time_to_us (Engine.now t.engine) in
    List.iter (fun g -> Gauge.push g ~at_us (Gauge.read g)) t.gauges;
    t.samples_taken <- t.samples_taken + 1

  (* The ticker reschedules itself forever, like the ZK session sweeper:
     cluster engines are driven by [run_for]/[run_until], never drained. *)
  let start_sampling t ~period =
    if not t.sampling then begin
      t.sampling <- true;
      let rec tick () =
        sample t;
        ignore (Engine.schedule t.engine ~after:period tick)
      in
      ignore (Engine.schedule t.engine ~after:period tick)
    end

  let to_json t =
    Json.Obj
      [
        ("samples_taken", Json.Int t.samples_taken);
        ("gauges", Json.List (List.map Gauge.to_json (gauges t)));
        ( "counters",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("name", Json.String (Counter.name c));
                     ("value", Json.Int (Counter.value c));
                   ])
               (counters t)) );
        ("histograms", Json.List (List.map Histogram.json_summary (histograms t)));
      ]
end

type run_stats = {
  throughput_per_sec : float;
  mean_latency_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  completed : int;
  errors : int;
}

let run_stats_of ~latency ~errors ~duration =
  let seconds = Sim_time.to_sec_f duration in
  let completed = Histogram.count latency in
  {
    throughput_per_sec = (if seconds > 0.0 then float_of_int completed /. seconds else 0.0);
    mean_latency_ms = Histogram.mean latency /. 1e3;
    p50_ms = Histogram.percentile latency 0.5 /. 1e3;
    p95_ms = Histogram.percentile latency 0.95 /. 1e3;
    p99_ms = Histogram.percentile latency 0.99 /. 1e3;
    completed;
    errors;
  }

let pp_run_stats ppf s =
  Format.fprintf ppf "%.0f req/s, mean %.2f ms, p50 %.2f ms, p99 %.2f ms (%d ops, %d errors)"
    s.throughput_per_sec s.mean_latency_ms s.p50_ms s.p99_ms s.completed s.errors

let json_of_run_stats s =
  Json.Obj
    [
      ("throughput_per_sec", Json.Float s.throughput_per_sec);
      ("mean_ms", Json.Float s.mean_latency_ms);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("completed", Json.Int s.completed);
      ("errors", Json.Int s.errors);
    ]

type net_stats = {
  net_sent : int;
  net_in_flight : int;
  net_delivered : int;
  net_dropped_down : int;
  net_dropped_partitioned : int;
  net_dropped_lost : int;
  net_duplicated : int;
  net_bytes : int;
}

let json_of_net_stats s =
  Json.Obj
    [
      ("delivered", Json.Int s.net_delivered);
      ("dropped_down", Json.Int s.net_dropped_down);
      ("dropped_partitioned", Json.Int s.net_dropped_partitioned);
      ("dropped_lost", Json.Int s.net_dropped_lost);
      ("duplicated", Json.Int s.net_duplicated);
      ("bytes", Json.Int s.net_bytes);
    ]
