(* Benchmark harness: one seeded workload, measured from outside the program.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --out RAW.json
                 [--spans SPANS.tsv]

   --trace 0: [executions] executions of the same seed, one after the other,
   each on a fresh cluster: set up (timed), run the measured phase with
   tracing off for 1/[executions] of the simulated span that [S] sizes, cut
   into [slices] consecutive slices of equal simulated duration and timing
   each slice on the host clock, then settle and time the correctness check
   at least [verify_repeats] times. The model is deterministic, so every
   execution runs the same events in the same slices; run.py keeps, per
   slice, the least time any execution took, which drops the host's
   transient stalls. Extra set-ups follow until [min_setups] are timed and
   [setup_budget_s] is spent. Every host time is paired with passes of the
   fixed reference work ([Probe.reference_ns]) taken next to it, so run.py
   can scale it to a nominal host speed.
   --trace 1: execution 0 untraced (per-layer counter deltas), then the
   same seed again on two more clusters, each with every [Engine.step] timed
   and the benchmark's calls into Client/Txn/History wrapped in spans: the
   first with the trace ring and gauge sampler off (the tracing-overhead
   baseline), the second with them on; then the post-run Store probes. All
   three must produce identical model outputs.

   The raw measurements go to RAW.json; run.py turns them into metrics. *)

open Spinnaker
module T = Sim.Sim_time
module E = Sim.Engine
module J = Sim.Json
module W = Workloads
module Fvec = Probe.Fvec

let slices = 200
let executions = 4
let min_setups = 3
let max_setups = 20
let setup_budget_s = 1.0
let verify_repeats = 3
let verify_budget_s = 0.5

type window = {
  sim_s : float;
  wall_s : float;
  cpu_s : float;
  slice_walls : (float * int) list;  (** host seconds, ops issued *)
  ref_ns : float array;  (** reference passes: before the first slice and after each *)
  events_ns : Fvec.t option;  (** per-step host ns, traced run only *)
  tag_counts : (string * int ref) list;  (** traced run: events of these tags emitted in the window *)
  before : J.t;
  after : J.t;
}

(* Sim.Json rounds floats to six digits; measurements keep all of theirs. *)
let rec write_json buf = function
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (string_of_bool b)
  | J.Int i -> Buffer.add_string buf (string_of_int i)
  | J.Float f ->
    Buffer.add_string buf (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | J.String s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | ('"' | '\\') as c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | J.List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf v)
      l;
    Buffer.add_char buf ']'
  | J.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_json buf (J.String k);
        Buffer.add_char buf ':';
        write_json buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_file path v =
  let buf = Buffer.create 65536 in
  write_json buf v;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counter snapshots, taken outside the timed phase.                   *)

let counters ctx =
  let c = ctx.W.cluster in
  let net = Sim.Network.stats (Cluster.net c) in
  let rp = Cluster.read_path_stats c in
  let rs = Cluster.read_serve_stats c in
  let gc = Gc.quick_stat () in
  let forces =
    Array.fold_left (fun acc n -> acc + Storage.Wal.forces_issued (Node.wal n)) 0 (Cluster.nodes c)
  in
  let i n = J.Int n in
  J.Obj
    [
      ("events", i (E.events_run ctx.W.engine));
      ("net_delivered", i net.Sim.Metrics.net_delivered);
      ( "net_dropped",
        i
          (net.Sim.Metrics.net_dropped_down + net.Sim.Metrics.net_dropped_partitioned
         + net.Sim.Metrics.net_dropped_lost) );
      ("net_bytes", i net.Sim.Metrics.net_bytes);
      ("wal_forces", i forces);
      ("committed_writes", i (Sim.Metrics.Write_phases.count (Cluster.write_phases c)));
      ("cache_hits", i rp.Cluster.cache_hits);
      ("cache_misses", i rp.Cluster.cache_misses);
      ("sstables_probed", i rp.Cluster.sstables_probed);
      ("sstables_skipped", i rp.Cluster.sstables_skipped);
      ("compaction_bytes", i rp.Cluster.total_compaction_input_bytes);
      ("leased", i rs.Cluster.leased);
      ("guarded", i rs.Cluster.guarded);
      ("leader_timeline", i rs.Cluster.leader_timeline);
      ("follower_timeline", i rs.Cluster.follower_timeline);
      ("token_waits", i rs.Cluster.token_waits);
      ("retries", i (List.fold_left (fun acc cl -> acc + Client.retries cl) 0 ctx.W.clients));
      ("minor_words", J.Float gc.Gc.minor_words);
      ("promoted_words", J.Float gc.Gc.promoted_words);
      ("major_collections", i gc.Gc.major_collections);
    ]

(* ------------------------------------------------------------------ *)
(* Set-up and the measured phase                                        *)

let setup (wl : W.t) ~seed ~instrumented ~traced =
  let t0 = Probe.now_ns () in
  let base = wl.W.config in
  let config =
    {
      base with
      Config.seed;
      metrics_sample_period = (if traced then base.Config.metrics_sample_period else T.span_zero);
      trace_capacity = (if traced then 1 lsl 20 else base.Config.trace_capacity);
      (* The outlier flight recorder rescans the whole ring per admission;
         with a ring this large it would dominate the traced run. *)
      outlier_top_k = 0;
    }
  in
  let engine = E.create ~seed () in
  let cluster = Cluster.create engine config in
  (* The ring stays off through boot and preload; the traced run switches
     it on for the measured window only. *)
  Sim.Trace.enable (Cluster.trace cluster) false;
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then failwith "cluster never became ready";
  let probe = Probe.create ~enabled:instrumented engine in
  let ctx = W.make_ctx ~engine ~cluster ~probe ~seed in
  wl.W.preload ctx;
  ctx.W.issuing <- true;
  wl.W.start ctx;
  E.run_for engine wl.W.warmup;
  (ctx, Probe.since_ns t0 /. 1e9)

(* [timed_steps]: the harness steps the engine itself and times each event.
   [traced]: the trace ring is on for the window. A reference pass runs
   before the first slice and after every slice, outside the slices' wall
   time and the window's CPU time. *)
let measure (wl : W.t) ctx ~seconds ~timed_steps ~traced ~snapshot =
  let engine = ctx.W.engine in
  let span = T.of_sec_f (wl.W.sim_per_wall *. float_of_int seconds /. float_of_int executions) in
  let start = E.now engine in
  let stop = T.add start span in
  ctx.W.window <- Some (start, stop);
  ctx.W.tally.W.last_ok_us <- T.time_to_us start;
  wl.W.arm ctx;
  let trace = Cluster.trace ctx.W.cluster in
  if traced then begin
    Sim.Trace.clear trace;
    Sim.Trace.enable trace true
  end;
  let before = if snapshot then counters ctx else J.Null in
  let events_ns = if timed_steps then Some (Fvec.create ()) else None in
  let tag_counts = [ ("leader_elected", ref 0); ("zk.session_expired", ref 0) ] in
  let emitted () = Sim.Trace.dropped trace + Sim.Trace.length trace in
  let seen = ref (emitted ()) in
  (* Counted from each slice's newly emitted events, outside the slice's
     timing, so ring evictions cannot hide any. *)
  let count_tags () =
    let fresh = emitted () - !seen in
    let skip = ref (Sim.Trace.length trace - fresh) in
    Sim.Trace.iter trace (fun e ->
        if !skip > 0 then decr skip
        else Option.iter incr (List.assoc_opt e.Sim.Trace.tag tag_counts));
    seen := emitted ()
  in
  let refs = Fvec.create () and ref_cpu = ref 0.0 in
  let reference () =
    let c0 = Probe.cpu_s () in
    Fvec.push refs (Probe.reference_ns ());
    ref_cpu := !ref_cpu +. (Probe.cpu_s () -. c0)
  in
  let cpu0 = Probe.cpu_s () in
  reference ();
  let slice_walls = ref [] in
  for i = 1 to slices do
    let boundary =
      T.add start (T.us (T.to_us span * i / slices))
    in
    let t0 = Probe.now_ns () in
    let a0 = ctx.W.tally.W.attempted in
    (match events_ns with
    | None -> E.run_until engine boundary
    | Some ev ->
      (* The harness steps the engine itself so each event is timed; a
         no-op sentinel at the boundary ends the slice. *)
      let reached = ref false in
      ignore (E.schedule_at engine boundary (fun () -> reached := true));
      while not !reached do
        let s0 = Probe.now_ns () in
        ignore (E.step engine);
        Fvec.push ev (Probe.since_ns s0)
      done;
      if i = slices then E.run_until engine boundary);
    slice_walls := (Probe.since_ns t0 /. 1e9, ctx.W.tally.W.attempted - a0) :: !slice_walls;
    reference ();
    if traced then count_tags ()
  done;
  let wall_s = List.fold_left (fun acc (s, _) -> acc +. s) 0.0 !slice_walls in
  let cpu_s = Probe.cpu_s () -. cpu0 -. !ref_cpu in
  ctx.W.issuing <- false;
  let t = ctx.W.tally in
  t.W.max_gap_us <- max t.W.max_gap_us (T.time_to_us stop - t.W.last_ok_us);
  let after = if snapshot then counters ctx else J.Null in
  {
    sim_s = T.to_sec_f span;
    wall_s;
    cpu_s;
    slice_walls = List.rev !slice_walls;
    ref_ns = Array.sub refs.Fvec.a 0 refs.Fvec.n;
    events_ns;
    tag_counts;
    before;
    after;
  }

(* Settle, then the correctness gate: invariant flags raised while running
   or settling, plus the history check. With [repeat] the check is timed at
   least [verify_repeats] times and until [verify_budget_s] is spent, so a
   check of a few microseconds still yields a steady median. Returns the
   check's host seconds and a reference pass taken just before it (one pair
   per repeat), and every violation. *)
let verify (wl : W.t) ctx ~repeat =
  wl.W.settle ctx;
  let times = ref [] and found = ref [] and spent = ref 0.0 in
  while !times = [] || (repeat && (List.length !times < verify_repeats || !spent < verify_budget_s)) do
    let r = Probe.reference_ns () in
    let t0 = Probe.now_ns () in
    found := wl.W.verify ctx;
    let s = Probe.since_ns t0 /. 1e9 in
    spent := !spent +. s;
    times := (s, r) :: !times
  done;
  (List.rev !times, List.rev_append ctx.W.violations !found)

(* Simulated results: deterministic for (workload, seed, seconds). *)
let model ctx (w : window) =
  let t = ctx.W.tally in
  let lat = Fvec.sorted t.W.lat_ms in
  J.Obj
    [
      ("p50_ms", J.Float (Fvec.rank lat 0.50));
      ("p99_ms", J.Float (Fvec.rank lat 0.99));
      ("ops_per_sim_s", J.Float (float_of_int t.W.finished_in_window /. w.sim_s));
      ("unavailable_ms", J.Float (float_of_int t.W.max_gap_us /. 1000.0));
      ("attempted", J.Int t.W.attempted);
      ("ok", J.Int t.W.ok);
      ("fingerprint", J.String (Workload.History.fingerprint ctx.W.history));
    ]

let tally_json ctx =
  let t = ctx.W.tally in
  J.Obj
    [
      ("attempted", J.Int t.W.attempted);
      ("ok", J.Int t.W.ok);
      ("timed_out", J.Int t.W.timed_out);
      ("refused", J.Int t.W.refused);
      ("aborted", J.Int t.W.aborted);
      ("finished", J.Int t.W.finished_in_window);
      ("txn_attempts", J.Int t.W.txn_attempts);
      ("txn_aborts", J.Int t.W.txn_aborts);
    ]

let floats l = J.List (List.map (fun x -> J.Float x) l)

let window_json (w : window) =
  J.Obj
    [
      ("sim_s", J.Float w.sim_s);
      ("wall_s", J.Float w.wall_s);
      ("cpu_s", J.Float w.cpu_s);
      ( "slices",
        J.List (List.map (fun (s, n) -> J.List [ J.Float s; J.Int n ]) w.slice_walls) );
      ("ref_ns", floats (Array.to_list w.ref_ns));
      ("before", w.before);
      ("after", w.after);
    ]

let violations_json vs =
  J.List (List.map (fun (i, d) -> J.List [ J.String i; J.String d ]) vs)

(* ------------------------------------------------------------------ *)
(* Traced-run layer probes                                              *)

let ms_of_us us = us /. 1000.0

let traced_layers ctx (w : window) =
  let cluster = ctx.W.cluster in
  let trace = Cluster.trace cluster in
  let window_start, window_stop = Option.get ctx.W.window in
  let in_window us = us >= T.time_to_us window_start && us < T.time_to_us window_stop in
  let ev = Option.get w.events_ns in
  let sorted = Fvec.sorted ev in
  let n = Array.length sorted in
  let top = max 1 (n / 100) in
  let heavy = ref 0.0 in
  for i = n - top to n - 1 do
    heavy := !heavy +. sorted.(i)
  done;
  let total = Fvec.sum ev in
  (* Critical-path attribution over the window's trace. *)
  let analysis =
    Sim.Critpath.analyze ~dropped:(Sim.Trace.dropped trace) ~events:(Sim.Trace.events trace) ()
  in
  let worst = ref 0.0 in
  List.iter
    (fun r -> worst := Float.max !worst (Sim.Critpath.conservation_error r))
    analysis.Sim.Critpath.requests;
  let segment s =
    let v = Fvec.create () in
    List.iter
      (fun r -> Fvec.push v (try List.assoc s r.Sim.Critpath.segments with Not_found -> 0.0))
      analysis.Sim.Critpath.requests;
    ms_of_us (Fvec.percentile v 0.5)
  in
  let depth = Fvec.create () in
  List.iter
    (fun g ->
      let name = Sim.Metrics.Gauge.name g in
      if String.ends_with ~suffix:"_commit_queue_depth" name then
        List.iter
          (fun (at, v) -> if in_window at then Fvec.push depth (float_of_int v))
          (Sim.Metrics.Gauge.points g))
    (Sim.Metrics.Registry.gauges (Cluster.metrics cluster));
  let f x = J.Float x in
  ( J.Obj
      ([
         ("event_ns_p50", f (Fvec.rank sorted 0.50));
         ("event_ns_p99", f (Fvec.rank sorted 0.99));
         ("heavy_share", f (if total > 0.0 then !heavy /. total else 0.0));
         ("events_timed", J.Int n);
         ("submit_ns", f (Fvec.percentile ctx.W.probe.Probe.submit 0.5));
         ("record_ns", f (Fvec.percentile ctx.W.probe.Probe.record 0.5));
         ("commit_queue_depth_p99", f (Fvec.percentile depth 0.99));
         ("elections", J.Int !(List.assoc "leader_elected" w.tag_counts));
         ("sessions_expired", J.Int !(List.assoc "zk.session_expired" w.tag_counts));
         ("trace_dropped", J.Int (Sim.Trace.dropped trace));
         ("critpath_requests", J.Int (List.length analysis.Sim.Critpath.requests));
         ("critpath_max_conservation_error", f !worst);
       ]
      @ List.map
          (fun s -> ("critpath." ^ Sim.Critpath.segment_name s ^ "_ms", f (segment s)))
          Sim.Critpath.all_segments),
    !worst )

(* Post-run store probes on the traced run's cluster: point reads on every
   range leader over a seeded key sample, then one crash + recovery. *)
let store_probes ctx ~seed =
  let cluster = ctx.W.cluster in
  let partition = Cluster.partition cluster in
  let config = Cluster.config cluster in
  let probe = ctx.W.probe in
  let rng = Random.State.make [| seed; 0x57043 |] in
  let store_of range =
    match Cluster.leader_of cluster ~range with
    | None -> None
    | Some l -> Option.map Cohort.store (Node.cohort (Cluster.node cluster l) ~range)
  in
  for _ = 1 to 4000 do
    let k = Partition.key_of_int partition (Random.State.int rng config.Config.key_space) in
    Option.iter
      (fun s -> ignore (Probe.timed probe Probe.Store_get (fun () -> Storage.Store.get s (k, W.column))))
      (store_of (Partition.route partition k))
  done;
  Option.iter
    (fun s ->
      Probe.timed probe Probe.Store_recover (fun () ->
          Storage.Store.crash s;
          ignore (Storage.Store.recover_all s)))
    (store_of 0);
  J.Obj
    [
      ("get_ns", J.Float (Fvec.percentile probe.Probe.store_get 0.5));
      ("recover_ms", J.Float (Fvec.sum probe.Probe.store_recover /. 1e6));
    ]

(* ------------------------------------------------------------------ *)

let run ~workload ~seed ~seconds ~traced ~out ~spans =
  let make =
    match List.assoc_opt workload W.all with
    | Some m -> m
    | None -> failwith ("unknown workload " ^ workload)
  in
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  add "workload" (J.String workload);
  add "seed" (J.Int seed);
  add "seconds" (J.Int seconds);
  let setup_times = ref [] in
  let violations = ref [] in
  (* A timed set-up, with a reference pass on either side. *)
  let timed_setup wl ~seed =
    let r0 = Probe.reference_ns () in
    let ctx, s = setup wl ~seed ~instrumented:false ~traced:false in
    let r1 = Probe.reference_ns () in
    setup_times := (s, (r0 +. r1) /. 2.0) :: !setup_times;
    ctx
  in
  (* One execution: set up (timed), measure, settle and check, on a fresh
     cluster of the run's seed. *)
  let execution _ =
    let wl = make () in
    let ctx = timed_setup wl ~seed in
    let w = measure wl ctx ~seconds ~timed_steps:false ~traced:false ~snapshot:traced in
    let verify_s, vs = verify wl ctx ~repeat:(not traced) in
    violations := vs @ !violations;
    J.Obj
      [
        ("window", window_json w);
        ("tally", tally_json ctx);
        ("model", model ctx w);
        ("verify_s", floats (List.map fst verify_s));
        ("verify_ref_ns", floats (List.map snd verify_s));
        ( "recorded_ops",
          J.Int
            (Workload.History.reads ctx.W.history + Workload.History.writes ctx.W.history
           + Workload.History.txns ctx.W.history) );
        ("schedule", Sim.Failure.json_of_schedule ctx.W.schedule);
      ]
  in
  add "executions" (J.List (List.init (if traced then 1 else executions) execution));
  (* Extra set-ups, discarded after timing, until the median is steady. *)
  let more () =
    let n = List.length !setup_times in
    (not traced)
    && n < max_setups
    && (n < min_setups || List.fold_left (fun acc (s, _) -> acc +. s) 0.0 !setup_times < setup_budget_s)
  in
  while more () do
    ignore (timed_setup (make ()) ~seed)
  done;
  let setups = List.rev !setup_times in
  add "setup_s" (floats (List.map fst setups));
  add "setup_ref_ns" (floats (List.map snd setups));
  if traced then begin
    (* The seed twice more, both with the harness's own instrumentation
       (each step timed, spans around its calls): first with the trace ring
       and gauge sampler off, the baseline of [trace.overhead_frac], then
       with them on. *)
    let instrumented ~traced =
      let wl = make () in
      let ctx, _ = setup wl ~seed ~instrumented:true ~traced in
      let w = measure wl ctx ~seconds ~timed_steps:true ~traced ~snapshot:false in
      (wl, ctx, w)
    in
    let wl, ctx, w = instrumented ~traced:false in
    let _, vs = verify wl ctx ~repeat:false in
    violations := vs @ !violations;
    add "baseline_window" (window_json w);
    add "baseline_model" (model ctx w);
    let wl, ctx, w = instrumented ~traced:true in
    let layers, worst = traced_layers ctx w in
    let _, vs = verify wl ctx ~repeat:false in
    if worst > 0.01 then
      violations := ("critpath-conservation", Printf.sprintf "max error %.4f" worst) :: !violations;
    violations := vs @ !violations;
    add "traced_window" (window_json w);
    add "traced_model" (model ctx w);
    add "traced" layers;
    add "store" (store_probes ctx ~seed);
    Option.iter (Probe.write_spans ctx.W.probe) spans
  end;
  add "violations" (violations_json !violations);
  add "heap_mb"
    (J.Float
       (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
       /. 1048576.0));
  json_to_file out (J.Obj (List.rev !fields))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S wall-clock budget that sizes the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or add the traced run");
      ("--out", Arg.Set_string out, "PATH raw measurements (JSON)");
      ("--spans", Arg.Set_string spans, "PATH traced-run spans (TSV)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --out PATH";
  if !out = "" || !seconds < 1 then begin
    prerr_endline "perfbench: --out is required and --seconds must be >= 1";
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~out:!out
    ~spans:(if !spans = "" then None else Some !spans)
