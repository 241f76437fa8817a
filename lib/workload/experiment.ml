type spec = {
  threads : int;
  write_fraction : float;
  conditional : bool;
  weights : Generator.weights option;
  key_mode : Generator.key_mode;
  value_bytes : int;
  warmup : Sim.Sim_time.span;
  measure : Sim.Sim_time.span;
}

let default_spec =
  {
    threads = 8;
    write_fraction = 0.0;
    conditional = false;
    weights = None;
    key_mode = Generator.Uniform_random;
    value_bytes = 4096;
    warmup = Sim.Sim_time.sec 2;
    measure = Sim.Sim_time.sec 10;
  }

let spec_weights spec =
  match spec.weights with
  | Some w -> w
  | None -> Generator.of_write_fraction ~conditional:spec.conditional spec.write_fraction

let spec_write_fraction spec = Generator.write_fraction_of (spec_weights spec)

type outcome = {
  spec : spec;
  all : Sim.Metrics.run_stats;
  reads : Sim.Metrics.run_stats;
  writes : Sim.Metrics.run_stats;
}

let run ~engine ~key_space ~make_driver spec =
  let read_hist = Sim.Metrics.Histogram.create ~name:"reads" () in
  let write_hist = Sim.Metrics.Histogram.create ~name:"writes" () in
  let errors = ref 0 in
  let start = Sim.Engine.now engine in
  let measure_from = Sim.Sim_time.add start spec.warmup in
  let stop = Sim.Sim_time.add measure_from spec.measure in
  let value = Generator.value ~size:spec.value_bytes in
  let weights = spec_weights spec in
  let spawn_thread thread =
    let driver = make_driver () in
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let gen =
      Generator.create ~rng ~key_space ~mode:spec.key_mode ~thread
    in
    (* One outstanding op per thread, so per-request issue state lives in the
       thread's mutable cells and the [finish] callback is allocated once per
       thread, not once per request (the per-request closure was measurable
       churn at bench request rates). *)
    let issued = ref Sim.Sim_time.zero in
    let last_op = ref Generator.Read in
    let rec next () =
      let now = Sim.Engine.now engine in
      if Sim.Sim_time.(now < stop) then begin
        let key = Generator.next_key gen in
        let op = Generator.pick_op rng weights in
        issued := now;
        last_op := op;
        match op with
        | Generator.Read -> driver.Driver.read ~key ~ok:finish
        | Generator.Write -> driver.Driver.write ~key ~value ~ok:finish
        | Generator.Cond_incr -> driver.Driver.conditional_increment ~key ~ok:finish
      end
    and finish ok =
      let done_at = Sim.Engine.now engine in
      if Sim.Sim_time.(!issued >= measure_from) && Sim.Sim_time.(done_at <= stop) then begin
        if ok then
          Sim.Metrics.Histogram.record_span
            (match !last_op with Generator.Read -> read_hist | _ -> write_hist)
            (Sim.Sim_time.diff done_at !issued)
        else incr errors
      end;
      next ()
    in
    (* Stagger thread start to avoid lock-step batching artifacts. *)
    ignore
      (Sim.Engine.schedule engine
         ~after:(Sim.Sim_time.us (Sim.Rng.int rng 10_000))
         next)
  in
  for thread = 0 to spec.threads - 1 do
    spawn_thread thread
  done;
  Sim.Engine.run_until engine stop;
  (* Drain in-flight requests so their callbacks do not leak into a later
     experiment on the same engine. *)
  Sim.Engine.run_for engine (Sim.Sim_time.sec 2);
  let stats hist =
    Sim.Metrics.run_stats_of ~latency:hist ~errors:!errors ~duration:spec.measure
  in
  {
    spec;
    all = stats (Sim.Metrics.Histogram.merge read_hist write_hist);
    reads = stats read_hist;
    writes = stats write_hist;
  }

(* ------------------------------------------------------------------ *)
(* Bank transfers: the multi-key transaction workload.                 *)

type bank_outcome = {
  transfers_committed : int;
  transfers_aborted : int;
  transfers_unresolved : int;
  bank_audits : int;
  bank_violations : (string * string) list;
  bank_history : History.t;
  transfer_stats : Sim.Metrics.run_stats;
}

let bank_column = "b"

(* Every value carries its writer's harness tag, so any later observation
   identifies the transaction it read from — the wr edges of the
   serialization graph come straight out of the data. *)
let bank_encode ~tag ~balance = Printf.sprintf "%s|%d" tag balance

let bank_decode ~initial = function
  | None -> (None, initial)
  | Some v -> (
    match String.index_opt v '|' with
    | None -> (None, int_of_string v)
    | Some i ->
      ( Some (String.sub v 0 i),
        int_of_string (String.sub v (i + 1) (String.length v - i - 1)) ))

let run_bank ~engine ~cluster ?(accounts = 16) ?(initial_balance = 100)
    ?(threads = 4) ?(duration = Sim.Sim_time.sec 10)
    ?(audit_period = Sim.Sim_time.ms 700) ?(heal = fun () -> ())
    ?(quiesce = Sim.Sim_time.sec 8) ?in_flight () =
  let partition = Spinnaker.Cluster.partition cluster in
  let config = Spinnaker.Cluster.config cluster in
  (* Accounts strided across the whole key space: transfers cross ranges,
     which is the point — single-range transfers would never need 2PC. *)
  let stride = Stdlib.max 1 (Spinnaker.Partition.key_space partition / accounts) in
  let keys = Array.init accounts (fun i -> Spinnaker.Partition.key_of_int partition (i * stride)) in
  let history = History.create () in
  let committed = ref 0 and aborted = ref 0 and audits = ref 0 in
  let violations = ref [] in
  let flag invariant detail = violations := (invariant, detail) :: !violations in
  let pending_status = ref [] in
  let transfer_hist = Sim.Metrics.Histogram.create ~name:"transfers" () in
  let stop = Sim.Sim_time.add (Sim.Engine.now engine) duration in
  let running = ref true in
  let track d = match in_flight with Some r -> r := !r + d | None -> () in
  let spawn_teller thread =
    let client = Spinnaker.Cluster.new_client cluster in
    let mgr = Spinnaker.Txn.manager ~engine ~config client in
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let n = ref 0 in
    let rec next () =
      if !running && Sim.Sim_time.(Sim.Engine.now engine < stop) then begin
        incr n;
        let tag = Printf.sprintf "x%d.%d" thread !n in
        let a, b = Generator.account_pair rng ~accounts in
        let ka = keys.(a) and kb = keys.(b) in
        let amount = 1 + Sim.Rng.int rng 5 in
        let observed = ref [] in
        let invoked = Sim.Engine.now engine in
        track 1;
        Spinnaker.Txn.run mgr
          ~reads:[ (ka, bank_column); (kb, bank_column) ]
          ~compute:(fun values ->
            let decoded =
              List.map
                (fun (key, _, v, _) -> (key, bank_decode ~initial:initial_balance v))
                values
            in
            observed := List.map (fun (key, (from, _)) -> (key, from)) decoded;
            let balance key = snd (List.assoc key decoded) in
            [
              (ka, bank_column, Some (bank_encode ~tag ~balance:(balance ka - amount)));
              (kb, bank_column, Some (bank_encode ~tag ~balance:(balance kb + amount)));
            ])
          (fun outcome ->
            track (-1);
            (match outcome with
            | Spinnaker.Txn.Committed { ts } ->
              incr committed;
              Sim.Metrics.Histogram.record_span transfer_hist
                (Sim.Sim_time.diff (Sim.Engine.now engine) invoked);
              History.record_txn history ~id:tag ~commit_ts:ts ~reads:!observed
                ~writes:[ ka; kb ]
            | Spinnaker.Txn.Aborted _ -> incr aborted
            | Spinnaker.Txn.Indeterminate { txn } ->
              (* ka is the anchor: the first written key carries the
                 decision record. Resolved against it after quiesce. *)
              pending_status := (txn, ka, tag, !observed, [ ka; kb ]) :: !pending_status);
            ignore
              (Sim.Engine.schedule engine
                 ~after:(Sim.Sim_time.ms (5 + Sim.Rng.int rng 20))
                 next))
      end
    in
    ignore (Sim.Engine.schedule engine ~after:(Sim.Sim_time.us (Sim.Rng.int rng 5_000)) next)
  in
  for thread = 0 to threads - 1 do
    spawn_teller thread
  done;
  (* The audit: one read-only snapshot transaction over every account. Its
     snapshot is consistent by construction, so the balance total must equal
     the invariant exactly — mid-transfer states are never visible. *)
  let audit_client = Spinnaker.Cluster.new_client cluster in
  let audit_mgr = Spinnaker.Txn.manager ~engine ~config audit_client in
  let all_reads = Array.to_list (Array.map (fun k -> (k, bank_column)) keys) in
  let expected_total = accounts * initial_balance in
  let audit_n = ref 0 in
  let run_audit k =
    incr audit_n;
    let tag = Printf.sprintf "audit.%d" !audit_n in
    let stash = ref None in
    Spinnaker.Txn.run audit_mgr ~reads:all_reads
      ~compute:(fun values ->
        stash :=
          Some
            (List.map
               (fun (key, _, v, _) -> (key, bank_decode ~initial:initial_balance v))
               values);
        [])
      (fun outcome ->
        (match (outcome, !stash) with
        | Spinnaker.Txn.Committed { ts }, Some decoded ->
          incr audits;
          let total = List.fold_left (fun acc (_, (_, bal)) -> acc + bal) 0 decoded in
          if total <> expected_total then
            flag "conservation"
              (Printf.sprintf "%s: balances total %d, expected %d" tag total expected_total);
          History.record_txn history ~id:tag ~commit_ts:ts
            ~reads:(List.map (fun (key, (from, _)) -> (key, from)) decoded)
            ~writes:[]
        | _ -> ());
        k outcome)
  in
  let rec audit_loop () =
    if !running && Sim.Sim_time.(Sim.Engine.now engine < stop) then
      run_audit (fun _ -> ignore (Sim.Engine.schedule engine ~after:audit_period audit_loop))
  in
  ignore (Sim.Engine.schedule engine ~after:audit_period audit_loop);
  Sim.Engine.run_until engine stop;
  running := false;
  heal ();
  Sim.Engine.run_for engine quiesce;
  (* Presumed-abort post-mortem: every transfer whose decide was lost asks
     the coordinator range for the recorded outcome. A committed answer
     joins the history (its writes are visible); anything still unreachable
     counts as unresolved. *)
  let unresolved = ref 0 in
  let pending = ref (List.length !pending_status) in
  List.iter
    (fun (txn, anchor, tag, observed, writes) ->
      Spinnaker.Client.txn_status audit_client ~txn ~anchor (fun r ->
          (match r with
          | Ok (true, ts) ->
            incr committed;
            History.record_txn history ~id:tag ~commit_ts:ts ~reads:observed ~writes
          | Ok (false, _) -> incr aborted
          | Error _ -> incr unresolved);
          decr pending))
    !pending_status;
  let rec drain n =
    if !pending > 0 && n > 0 then begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
      drain (n - 1)
    end
  in
  drain 600;
  unresolved := !unresolved + !pending;
  (* Final audit after the dust settles, then the serializability check over
     everything that committed. *)
  let final_done = ref false in
  run_audit (fun outcome ->
      (match outcome with
      | Spinnaker.Txn.Committed _ -> ()
      | o ->
        flag "conservation"
          (Format.asprintf "final audit did not commit: %a" Spinnaker.Txn.pp_outcome o));
      final_done := true);
  let rec drain_final n =
    if (not !final_done) && n > 0 then begin
      Sim.Engine.run_for engine (Sim.Sim_time.ms 50);
      drain_final (n - 1)
    end
  in
  drain_final 600;
  List.iter
    (fun v -> flag "serializability" (Format.asprintf "%a" History.pp_violation v))
    (History.check_serializable history);
  {
    transfers_committed = !committed;
    transfers_aborted = !aborted;
    transfers_unresolved = !unresolved;
    bank_audits = !audits;
    bank_violations = List.rev !violations;
    bank_history = history;
    transfer_stats =
      Sim.Metrics.run_stats_of ~latency:transfer_hist ~errors:!aborted ~duration;
  }

let json_of_bank b =
  Sim.Json.Obj
    [
      ("committed", Sim.Json.Int b.transfers_committed);
      ("aborted", Sim.Json.Int b.transfers_aborted);
      ("unresolved", Sim.Json.Int b.transfers_unresolved);
      ("audits", Sim.Json.Int b.bank_audits);
      ( "violations",
        Sim.Json.List
          (List.map
             (fun (invariant, detail) ->
               Sim.Json.Obj
                 [
                   ("invariant", Sim.Json.String invariant);
                   ("detail", Sim.Json.String detail);
                 ])
             b.bank_violations) );
      ("txns_recorded", Sim.Json.Int (History.txns b.bank_history));
      ("transfers", Sim.Metrics.json_of_run_stats b.transfer_stats);
    ]

type sweep_point = { threads : int; outcome : outcome }

let sweep ~engine ~key_space ~make_driver ~thread_counts spec =
  List.map
    (fun threads ->
      { threads; outcome = run ~engine ~key_space ~make_driver { spec with threads } })
    thread_counts

let json_of_outcome o =
  Sim.Json.Obj
    [
      ("threads", Sim.Json.Int o.spec.threads);
      ("write_fraction", Sim.Json.Float (spec_write_fraction o.spec));
      ("all", Sim.Metrics.json_of_run_stats o.all);
      ("reads", Sim.Metrics.json_of_run_stats o.reads);
      ("writes", Sim.Metrics.json_of_run_stats o.writes);
    ]

let json_of_sweep points = Sim.Json.List (List.map (fun p -> json_of_outcome p.outcome) points)
