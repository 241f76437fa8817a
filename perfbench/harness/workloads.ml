(* The four benchmark workloads. Every input the program receives — keys,
   the operation mix, open-loop arrival times and the fault schedule — is
   drawn here from the benchmark's own seeded generator ([ctx.rng]); the
   engine's seed only drives the model's internal randomness (network delay,
   jitter, loss). Each workload builds its own correctness evidence: a
   register or transaction history plus invariant checks run after the
   measured phase. *)

open Spinnaker
module T = Sim.Sim_time
module E = Sim.Engine
module H = Workload.History

type outcome = Done | Timed_out | Refused | Aborted

type tally = {
  mutable attempted : int;  (** ops due inside the measured window *)
  mutable ok : int;
  mutable timed_out : int;
  mutable refused : int;
  mutable aborted : int;
  mutable finished_in_window : int;  (** ops of any outcome finishing inside the window *)
  lat_ms : Probe.Fvec.t;  (** simulated latency, due to completion, of window ops that succeeded *)
  mutable txn_attempts : int;
  mutable txn_aborts : int;
  mutable last_ok_us : int;
  mutable max_gap_us : int;
}

type ctx = {
  engine : E.t;
  cluster : Cluster.t;
  history : H.t;
  probe : Probe.t;
  rng : Random.State.t;
  tally : tally;
  mutable issuing : bool;
  mutable window : (T.t * T.t) option;
  mutable clients : Client.t list;
  mutable violations : (string * string) list;
  mutable schedule : Sim.Failure.schedule;  (** the injected faults, if any *)
}

let make_ctx ~engine ~cluster ~probe ~seed =
  {
    engine;
    cluster;
    history = H.create ();
    probe;
    rng = Random.State.make [| seed; 0x5eed |];
    tally =
      {
        attempted = 0;
        ok = 0;
        timed_out = 0;
        refused = 0;
        aborted = 0;
        finished_in_window = 0;
        lat_ms = Probe.Fvec.create ();
        txn_attempts = 0;
        txn_aborts = 0;
        last_ok_us = 0;
        max_gap_us = 0;
      };
    issuing = false;
    window = None;
    clients = [];
    violations = [];
    schedule = [];
  }

let flag ctx invariant detail = ctx.violations <- (invariant, detail) :: ctx.violations

let in_window ctx t =
  match ctx.window with Some (a, b) -> T.(t >= a) && T.(t < b) | None -> false

let now ctx = E.now ctx.engine

let issue ctx ~due = if in_window ctx due then ctx.tally.attempted <- ctx.tally.attempted + 1

let complete ctx ~due outcome =
  let t = ctx.tally in
  let at = now ctx in
  if in_window ctx at then begin
    t.finished_in_window <- t.finished_in_window + 1;
    if outcome = Done then begin
      let us = T.time_to_us at in
      t.max_gap_us <- max t.max_gap_us (us - t.last_ok_us);
      t.last_ok_us <- us
    end
  end;
  if in_window ctx due then
    match outcome with
    | Done ->
      t.ok <- t.ok + 1;
      Probe.Fvec.push t.lat_ms (T.to_ms_f (T.diff at due))
    | Timed_out -> t.timed_out <- t.timed_out + 1
    | Refused -> t.refused <- t.refused + 1
    | Aborted -> t.aborted <- t.aborted + 1

let outcome_of = function
  | Ok _ -> Done
  | Error Client.Timed_out -> Timed_out
  | Error (Client.Version_mismatch _ | Client.Cross_range | Client.Conflict) -> Refused

let new_client ctx =
  let c = Cluster.new_client ctx.cluster in
  ctx.clients <- c :: ctx.clients;
  c

let key ctx i = Partition.key_of_int (Cluster.partition ctx.cluster) i

let column = "v"

(* Register values carry the writer's serial number ahead of the padding, so
   any read names the write it observed. *)
let encode ~size seq =
  let p = string_of_int seq ^ "|" in
  if String.length p >= size then p else p ^ String.make (size - String.length p) 'v'

let decode = function
  | None -> None
  | Some v -> (
    match String.index_opt v '|' with
    | Some i -> int_of_string_opt (String.sub v 0 i)
    | None -> int_of_string_opt v)

let record_write ctx ~key ~seq ~invoked ~acked =
  Probe.timed ctx.probe Probe.History (fun () ->
      H.record_write ctx.history ~key ~seq ~invoked ~completed:(now ctx) ~acked)

let record_read ctx ~key ~observed ~invoked =
  Probe.timed ctx.probe Probe.History (fun () ->
      H.record_read ctx.history ~key ~observed ~invoked ~completed:(now ctx))

(* Run the engine in 10 ms steps until [finished] holds or [limit] of
   simulated time passes; false on timeout. *)
let drive ctx ~limit finished =
  let deadline = T.add (now ctx) limit in
  let rec go () =
    if finished () then true
    else if T.(now ctx >= deadline) then false
    else begin
      E.run_for ctx.engine (T.ms 10);
      go ()
    end
  in
  go ()

let exp_span rng mean =
  let u = Random.State.float rng 1.0 in
  T.of_sec_f (Float.max 1e-6 (-.mean *. log (1.0 -. u)))

(* Final strong reads over [keys], 256 at a time: each observed serial must
   lie between the key's last acknowledged write and its last issued one — an
   older value is a lost acknowledged write, a newer one a write nobody
   issued. *)
let final_reads ctx ~keys ~acked ~issued =
  let client = new_client ctx in
  let todo = ref keys and pending = ref (List.length keys) in
  let rec read_next () =
    match !todo with
    | [] -> ()
    | (k, i) :: rest ->
      todo := rest;
      let invoked = now ctx in
      Client.get client k column (fun r ->
          decr pending;
          (match r with
          | Ok { Client.value; _ } ->
            let observed = decode value in
            record_read ctx ~key:k ~observed ~invoked;
            let o = Option.value observed ~default:0 in
            if o < acked i then
              flag ctx "lost-acked-write"
                (Printf.sprintf "%s: read seq %d < acked %d" k o (acked i));
            if o > issued i then
              flag ctx "phantom-write" (Printf.sprintf "%s: read seq %d > issued %d" k o (issued i))
          | Error e ->
            flag ctx "unavailable-after-run" (Format.asprintf "%s: %a" k Client.pp_error e));
          read_next ())
  in
  for _ = 1 to 256 do
    read_next ()
  done;
  if not (drive ctx ~limit:(T.sec 60) (fun () -> !pending = 0)) then
    flag ctx "unavailable-after-run" "final reads did not complete"

let linearizable ctx =
  List.map
    (fun v -> ("linearizability", Format.asprintf "%a" H.pp_violation v))
    (H.check ctx.history)

type t = {
  config : Config.t;
  sim_per_wall : float;
      (** simulated seconds measured per requested wall-clock second: sized
          so a run's measured executions together take roughly [--seconds] on a
          current x86 core; fixed per workload, so a run's simulated inputs
          depend only on the seed and [--seconds] *)
  warmup : T.span;
  preload : ctx -> unit;
  start : ctx -> unit;  (** begin the load; it runs while [ctx.issuing] *)
  arm : ctx -> unit;  (** at the start of the measured window *)
  settle : ctx -> unit;  (** after the window: heal, drain, final reads *)
  verify : ctx -> (string * string) list;  (** the timed correctness check *)
}

let nothing (_ : ctx) = ()

(* ------------------------------------------------------------------ *)
(* write-heavy: closed loop, 256 clients, 100% puts over uniform keys.  *)

let write_heavy () =
  let clients = 256 in
  (* 100 keys per client: overwrites let compaction and log truncation keep
     the stores at a steady size, so host cost per write does not drift
     with the length of the run. The small flush threshold makes every run
     flush and compact many times, so those heavy events are averaged
     rather than landing in or out of the window by chance. *)
  let config =
    {
      Config.default with
      Config.key_space = clients * 100;
      value_bytes = 512;
      flush_bytes = 256 * 1024;
    }
  in
  let per_client = config.Config.key_space / clients in
  let issued = Array.make_matrix clients per_client 0 in
  let acked = Array.make_matrix clients per_client 0 in
  let start ctx =
    for c = 0 to clients - 1 do
      let client = new_client ctx in
      let rec next () =
        if ctx.issuing then begin
          let j = Random.State.int ctx.rng per_client in
          let k = key ctx (c + (clients * j)) in
          issued.(c).(j) <- issued.(c).(j) + 1;
          let seq = issued.(c).(j) in
          let due = now ctx in
          issue ctx ~due;
          Probe.timed ctx.probe Probe.Client (fun () ->
              Client.put client k column ~value:(encode ~size:config.Config.value_bytes seq)
                (fun r ->
                  if Result.is_ok r then acked.(c).(j) <- seq;
                  record_write ctx ~key:k ~seq ~invoked:due ~acked:(Result.is_ok r);
                  complete ctx ~due (outcome_of r);
                  next ()))
        end
      in
      ignore (E.schedule ctx.engine ~after:(T.us (Random.State.int ctx.rng 10_000)) next)
    done
  in
  let settle ctx =
    E.run_for ctx.engine (T.sec 2);
    (* Every written key, read back strongly. *)
    let keys = ref [] in
    for c = clients - 1 downto 0 do
      for j = per_client - 1 downto 0 do
        if issued.(c).(j) > 0 then keys := (key ctx (c + (clients * j)), (c, j)) :: !keys
      done
    done;
    let keys = !keys in
    final_reads ctx ~keys
      ~acked:(fun (c, j) -> acked.(c).(j))
      ~issued:(fun (c, j) -> issued.(c).(j))
  in
  {
    config;
    sim_per_wall = 2.5;
    warmup = T.sec 1;
    preload = nothing;
    start;
    arm = nothing;
    settle;
    verify = linearizable;
  }

(* ------------------------------------------------------------------ *)
(* read-mostly: preloaded LSM, hotspot keys, 95% reads, 5% writes.      *)

let read_mostly () =
  let clients = 64 in
  let config =
    {
      Config.default with
      Config.key_space = 20_000;
      flush_bytes = 64 * 1024;
      value_bytes = 1024;
      row_cache_capacity = 256;
      commit_period = T.ms 100;
      piggyback_commits = true;
    }
  in
  let key_space = config.Config.key_space in
  let size = config.Config.value_bytes in
  let hot_keys = 512 in
  let hot_stride = key_space / hot_keys in
  let fraction_hot = 0.9 in
  (* Key k is written only by client [k mod clients] (single-writer
     registers); the preload writes every key once as serial 1. *)
  let issued = Array.make key_space 0 in
  let acked = Array.make key_space 0 in
  let preload ctx =
    let writers = 128 in
    let pending = ref key_space in
    for w = 0 to writers - 1 do
      let client = new_client ctx in
      let rec next i =
        if i < key_space then begin
          let k = key ctx i in
          let invoked = now ctx in
          issued.(i) <- 1;
          Client.put client k column ~value:(encode ~size 1) (fun r ->
              decr pending;
              if Result.is_ok r then acked.(i) <- 1
              else flag ctx "preload" (Printf.sprintf "preload write of %s failed" k);
              record_write ctx ~key:k ~seq:1 ~invoked ~acked:(Result.is_ok r);
              next (i + writers))
        end
      in
      next w
    done;
    if not (drive ctx ~limit:(T.sec 120) (fun () -> !pending = 0)) then
      flag ctx "preload" "preload did not complete"
  in
  let pick_read ctx =
    if Random.State.float ctx.rng 1.0 < fraction_hot then
      Random.State.int ctx.rng hot_keys * hot_stride
    else Random.State.int ctx.rng key_space
  in
  let own_hot =
    Array.init clients (fun c ->
        Array.of_list
          (List.filter
             (fun k -> k mod clients = c)
             (List.init hot_keys (fun i -> i * hot_stride))))
  in
  let pick_write ctx c =
    if Random.State.float ctx.rng 1.0 < fraction_hot && Array.length own_hot.(c) > 0 then
      own_hot.(c).(Random.State.int ctx.rng (Array.length own_hot.(c)))
    else c + (clients * Random.State.int ctx.rng ((key_space - c + clients - 1) / clients))
  in
  let start ctx =
    for c = 0 to clients - 1 do
      let client = new_client ctx in
      let rec next () =
        if ctx.issuing then begin
          let due = now ctx in
          issue ctx ~due;
          if Random.State.float ctx.rng 1.0 < 0.05 then begin
            let i = pick_write ctx c in
            let k = key ctx i in
            issued.(i) <- issued.(i) + 1;
            let seq = issued.(i) in
            Probe.timed ctx.probe Probe.Client (fun () ->
                Client.put client k column ~value:(encode ~size seq) (fun r ->
                    if Result.is_ok r then acked.(i) <- seq;
                    record_write ctx ~key:k ~seq ~invoked:due ~acked:(Result.is_ok r);
                    complete ctx ~due (outcome_of r);
                    next ()))
          end
          else begin
            let i = pick_read ctx in
            let k = key ctx i in
            let consistent = Random.State.bool ctx.rng in
            Probe.timed ctx.probe Probe.Client (fun () ->
                Client.get client ~consistent k column (fun r ->
                    (match r with
                    | Ok { Client.value; _ } ->
                      let observed = decode value in
                      if consistent then record_read ctx ~key:k ~observed ~invoked:due
                      else begin
                        (* Timeline reads may be stale, but never older than
                           this client's own acknowledged write (the token),
                           and never newer than any issued write. *)
                        let o = Option.value observed ~default:0 in
                        if i mod clients = c && o < acked.(i) then
                          flag ctx "read-your-writes"
                            (Printf.sprintf "%s: timeline read seq %d < own acked %d" k o
                               acked.(i));
                        if o > issued.(i) then
                          flag ctx "timeline-read"
                            (Printf.sprintf "%s: timeline read seq %d, issued %d" k o issued.(i))
                      end
                    | Error _ -> ());
                    complete ctx ~due (outcome_of r);
                    next ()))
          end
        end
      in
      ignore (E.schedule ctx.engine ~after:(T.us (Random.State.int ctx.rng 10_000)) next)
    done
  in
  let settle ctx =
    E.run_for ctx.engine (T.sec 2);
    final_reads ctx
      ~keys:(List.init hot_keys (fun h -> (key ctx (h * hot_stride), h * hot_stride)))
      ~acked:(fun i -> acked.(i))
      ~issued:(fun i -> issued.(i))
  in
  {
    config;
    sim_per_wall = 3.0;
    warmup = T.ms 500;
    preload;
    start;
    arm = nothing;
    settle;
    verify = linearizable;
  }

(* ------------------------------------------------------------------ *)
(* txn-bank: 8 tellers, cross-range transfers over 16 accounts, audits. *)

let bank_column = "b"

let txn_bank () =
  let config = { Config.default with Config.nodes = 5; disk = Sim.Disk_model.Ssd } in
  let accounts = 16 and tellers = 8 and initial = 100 in
  let max_attempts = 64 in
  let stride = config.Config.key_space / accounts in
  let expected_total = accounts * initial in
  let pending_status = ref [] in
  let account ctx i = key ctx (i * stride) in
  let decode_balance = function
    | None -> (None, initial)
    | Some v -> (
      match String.index_opt v '|' with
      | None -> (None, int_of_string v)
      | Some i ->
        (Some (String.sub v 0 i), int_of_string (String.sub v (i + 1) (String.length v - i - 1))))
  in
  let txn_config ctx = Cluster.config ctx.cluster in
  let think ctx k =
    ignore (E.schedule ctx.engine ~after:(T.ms (5 + Random.State.int ctx.rng 20)) k)
  in
  let start ctx =
    for teller = 0 to tellers - 1 do
      let mgr = Txn.manager ~engine:ctx.engine ~config:(txn_config ctx) (new_client ctx) in
      let n = ref 0 in
      let rec transfer () =
        if ctx.issuing then begin
          incr n;
          let a = Random.State.int ctx.rng accounts in
          let b = (a + 1 + Random.State.int ctx.rng (accounts - 1)) mod accounts in
          let amount = 1 + Random.State.int ctx.rng 5 in
          let due = now ctx in
          issue ctx ~due;
          attempt ~due ~id:!n ~a ~b ~amount 1
        end
      and attempt ~due ~id ~a ~b ~amount k =
        let tag = Printf.sprintf "x%d.%d.%d" teller id k in
        let ka = account ctx a and kb = account ctx b in
        let observed = ref [] in
        if in_window ctx (now ctx) then ctx.tally.txn_attempts <- ctx.tally.txn_attempts + 1;
        Probe.timed ctx.probe Probe.Txn (fun () ->
            Txn.run mgr
              ~reads:[ (ka, bank_column); (kb, bank_column) ]
              ~compute:(fun values ->
                let decoded =
                  List.map (fun (key, _, v, _) -> (key, decode_balance v)) values
                in
                observed := List.map (fun (key, (from, _)) -> (key, from)) decoded;
                let balance key = snd (List.assoc key decoded) in
                [
                  (ka, bank_column, Some (Printf.sprintf "%s|%d" tag (balance ka - amount)));
                  (kb, bank_column, Some (Printf.sprintf "%s|%d" tag (balance kb + amount)));
                ])
              (fun outcome ->
                match outcome with
                | Txn.Committed { ts } ->
                  Probe.timed ctx.probe Probe.History (fun () ->
                      H.record_txn ctx.history ~id:tag ~commit_ts:ts ~reads:!observed
                        ~writes:[ ka; kb ]);
                  complete ctx ~due Done;
                  think ctx transfer
                | Txn.Aborted _ ->
                  if in_window ctx (now ctx) then
                    ctx.tally.txn_aborts <- ctx.tally.txn_aborts + 1;
                  (* A teller retries its transfer on a fresh snapshot, as an
                     application would; only a transfer abandoned after
                     [max_attempts] is a failed operation. *)
                  if k < max_attempts then
                    think ctx (fun () -> attempt ~due ~id ~a ~b ~amount (k + 1))
                  else begin
                    complete ctx ~due Aborted;
                    think ctx transfer
                  end
                | Txn.Indeterminate { txn } ->
                  pending_status := (txn, ka, tag, !observed, [ ka; kb ]) :: !pending_status;
                  complete ctx ~due Timed_out;
                  think ctx transfer))
      in
      ignore (E.schedule ctx.engine ~after:(T.us (Random.State.int ctx.rng 5_000)) transfer)
    done;
    (* Snapshot audits: the balance total must be conserved in every
       snapshot. Each committed audit is one operation. *)
    let audit_client = new_client ctx in
    let mgr = Txn.manager ~engine:ctx.engine ~config:(txn_config ctx) audit_client in
    let audits = ref 0 in
    let rec audit () =
      if ctx.issuing then begin
        incr audits;
        let tag = Printf.sprintf "audit.%d" !audits in
        let due = now ctx in
        issue ctx ~due;
        let stash = ref [] in
        Probe.timed ctx.probe Probe.Txn (fun () ->
            Txn.run mgr
              ~reads:(List.init accounts (fun i -> (account ctx i, bank_column)))
              ~compute:(fun values ->
                stash := List.map (fun (key, _, v, _) -> (key, decode_balance v)) values;
                [])
              (fun outcome ->
                (match outcome with
                | Txn.Committed { ts } ->
                  let total = List.fold_left (fun acc (_, (_, b)) -> acc + b) 0 !stash in
                  if total <> expected_total then
                    flag ctx "conservation"
                      (Printf.sprintf "%s: balances total %d, expected %d" tag total
                         expected_total);
                  Probe.timed ctx.probe Probe.History (fun () ->
                      H.record_txn ctx.history ~id:tag ~commit_ts:ts
                        ~reads:(List.map (fun (key, (from, _)) -> (key, from)) !stash)
                        ~writes:[]);
                  complete ctx ~due Done
                | Txn.Aborted _ -> complete ctx ~due Aborted
                | Txn.Indeterminate _ -> complete ctx ~due Timed_out);
                ignore (E.schedule ctx.engine ~after:(T.ms 700) audit)))
      end
    in
    ignore (E.schedule ctx.engine ~after:(T.ms 700) audit)
  in
  let settle ctx =
    E.run_for ctx.engine (T.sec 3);
    let client = new_client ctx in
    let open_queries = ref (List.length !pending_status) in
    List.iter
      (fun (txn, anchor, tag, observed, writes) ->
        Client.txn_status client ~txn ~anchor (fun r ->
            decr open_queries;
            match r with
            | Ok (true, ts) -> H.record_txn ctx.history ~id:tag ~commit_ts:ts ~reads:observed ~writes
            | Ok (false, _) -> ()
            | Error _ -> flag ctx "unresolved" (Printf.sprintf "transfer %s never resolved" tag)))
      !pending_status;
    ignore (drive ctx ~limit:(T.sec 30) (fun () -> !open_queries = 0));
    (* The final audit, after everything settled. *)
    let mgr = Txn.manager ~engine:ctx.engine ~config:(txn_config ctx) client in
    let total = ref None in
    Txn.run mgr
      ~reads:(List.init accounts (fun i -> (account ctx i, bank_column)))
      ~compute:(fun values ->
        total :=
          Some (List.fold_left (fun acc (_, _, v, _) -> acc + snd (decode_balance v)) 0 values);
        [])
      (fun _ -> ());
    if not (drive ctx ~limit:(T.sec 30) (fun () -> !total <> None)) then
      flag ctx "conservation" "final audit did not complete"
    else if !total <> Some expected_total then
      flag ctx "conservation"
        (Printf.sprintf "final audit total %d, expected %d"
           (Option.value !total ~default:0) expected_total)
  in
  let verify ctx =
    List.map
      (fun v -> ("serializability", Format.asprintf "%a" H.pp_violation v))
      (H.check_serializable ctx.history)
  in
  {
    config;
    sim_per_wall = 60.0;
    warmup = T.sec 2;
    preload = nothing;
    start;
    arm = nothing;
    settle;
    verify;
  }

(* ------------------------------------------------------------------ *)
(* nemesis: open-loop keyed serial writes under seeded faults.          *)

let pair_label a b = Printf.sprintf "pair %d<->%d" a b

let oneway_label a b = Printf.sprintf "oneway %d->%d" a b

let zk_label n = Printf.sprintf "zk-cut-n%d" n

(* Every subject the generated schedule may name. *)
let register_universe failure cluster =
  let net = Cluster.net cluster in
  let nodes = Array.length (Cluster.nodes cluster) in
  List.iter (Sim.Failure.register_target failure) (Cluster.failure_targets cluster);
  for a = 0 to nodes - 1 do
    for b = 0 to nodes - 1 do
      if a < b then
        Sim.Failure.register_toggle failure
          (Sim.Failure.toggle ~label:(pair_label a b)
             ~engage:(fun () -> Sim.Network.partition_pair net a b)
             ~disengage:(fun () -> Sim.Network.heal_pair net a b));
      if a <> b then
        Sim.Failure.register_toggle failure
          (Sim.Failure.oneway_toggle ~label:(oneway_label a b) net ~src:a ~dst:b)
    done;
    Sim.Failure.register_toggle failure
      (Sim.Failure.toggle ~label:(zk_label a)
         ~engage:(fun () -> Cluster.set_zk_reachable cluster a false)
         ~disengage:(fun () -> Cluster.set_zk_reachable cluster a true))
  done

(* A Mixed-style profile as a schedule, drawn from the benchmark's generator:
   crash/restart of two nodes, rarer crashes of a third, random pair
   partitions (symmetric or one-way) and coordination-service cuts of the
   last node. Each fault process is stratified: the window is cut into
   equal periods and every period holds exactly one episode at a random
   offset, so runs of different seeds absorb the same number of faults.
   Unlike [Workload.Chaos] [Mixed] there are no lossy-link episodes, and a
   crashed node stays down at least twice the coordination session timeout;
   both make the program's stale strong reads after takeover (see the
   nemesis workload) more frequent. *)
let mixed_schedule rng ~nodes ~targets ~start ~until : Sim.Failure.schedule =
  let open Sim.Failure in
  let span_s = T.to_sec_f (T.diff until start) in
  let out = ref [] in
  let add at_s kind who = out := { at = T.add start (T.of_sec_f at_s); fault = { kind; who } } :: !out in
  let exp mean = -.mean *. log (1.0 -. Random.State.float rng 1.0) in
  let episodes ~every ~down ~on ~off pick =
    let n = max 1 (int_of_float (span_s /. every)) in
    let period = span_s /. float_of_int n in
    for i = 0 to n - 1 do
      let len = Float.min (down ()) (period /. 2.0) in
      let at = (float_of_int i *. period) +. Random.State.float rng (period -. len) in
      let who = pick () in
      add at on who;
      add (at +. len) off who
    done
  in
  let crash_down () = 1.0 +. exp 0.5 in
  List.iteri
    (fun i label ->
      if i < 2 then episodes ~every:4.5 ~down:crash_down ~on:Crash ~off:Restart (fun () -> label)
      else if i = 2 then
        episodes ~every:12.5 ~down:crash_down ~on:Crash ~off:Restart (fun () -> label))
    targets;
  episodes ~every:1.5
    ~down:(fun () -> exp 0.7)
    ~on:Engage ~off:Disengage
    (fun () ->
      let a = Random.State.int rng nodes in
      let b = (a + 1 + Random.State.int rng (nodes - 1)) mod nodes in
      if Random.State.bool rng then pair_label (min a b) (max a b) else oneway_label a b);
  episodes ~every:5.0
    ~down:(fun () -> exp 1.0)
    ~on:Engage ~off:Disengage
    (fun () -> zk_label (nodes - 1));
  List.stable_sort (fun a b -> T.compare a.at b.at) (List.rev !out)

let nemesis () =
  let config = Workload.Chaos.default_config in
  let keys = 1024 in
  let write_rate = 600.0 in
  let issued = Array.make keys 0 in
  let acked = Array.make keys 0 in
  let queue = Array.init keys (fun _ -> Queue.create ()) in
  let busy = Array.make keys false in
  let writers = ref [||] in
  (* A key's writes are serial, through the key's own client: an arrival
     while the key's previous write is in flight waits in the key's queue,
     and its latency counts from when it was due. One writer client per key
     keeps each client's retries inside the servers' per-client
     duplicate-suppression window. Strong reads are issued only after the
     faults end (the final read-back): under crash-driven takeovers the
     program serves stale strong reads often enough that a read load during
     the window fails the linearizability check on about one run in ten. *)
  let rec send ctx i =
    match Queue.take_opt queue.(i) with
    | None -> busy.(i) <- false
    | Some due ->
      busy.(i) <- true;
      issued.(i) <- issued.(i) + 1;
      let seq = issued.(i) in
      let k = key ctx i in
      let invoked = now ctx in
      let client = !writers.(i) in
      Probe.timed ctx.probe Probe.Client (fun () ->
          Client.put client k column ~value:(string_of_int seq) (fun r ->
              if Result.is_ok r then acked.(i) <- seq;
              record_write ctx ~key:k ~seq ~invoked ~acked:(Result.is_ok r);
              complete ctx ~due (outcome_of r);
              send ctx i))
  in
  let start ctx =
    writers := Array.init keys (fun _ -> new_client ctx);
    let rec write_arrival () =
      if ctx.issuing then begin
        let due = now ctx in
        let i = Random.State.int ctx.rng keys in
        issue ctx ~due;
        Queue.push due queue.(i);
        if not busy.(i) then send ctx i;
        ignore (E.schedule ctx.engine ~after:(exp_span ctx.rng (1.0 /. write_rate)) write_arrival)
      end
    in
    write_arrival ()
  in
  let arm ctx =
    match ctx.window with
    | None -> ()
    | Some (start, until) ->
      let failure = Sim.Failure.create ctx.engine in
      register_universe failure ctx.cluster;
      let targets =
        List.map (fun t -> t.Sim.Failure.label) (Cluster.failure_targets ctx.cluster)
      in
      ctx.schedule <- mixed_schedule ctx.rng ~nodes:config.Config.nodes ~targets ~start ~until;
      Sim.Failure.apply failure ctx.schedule
  in
  (* Every generated fault is repaired by the end of the window. *)
  let settle ctx =
    let idle () = Array.for_all not busy in
    if not (drive ctx ~limit:(T.sec 60) idle) then
      flag ctx "unavailable-after-run" "queued writes did not drain after the faults ended";
    E.run_for ctx.engine (T.sec 2);
    final_reads ctx
      ~keys:(List.init keys (fun i -> (key ctx i, i)))
      ~acked:(fun i -> acked.(i))
      ~issued:(fun i -> issued.(i))
  in
  {
    config;
    sim_per_wall = 12.0;
    warmup = T.sec 2;
    preload = nothing;
    start;
    arm;
    settle;
    verify = linearizable;
  }

let all = [ ("write-heavy", write_heavy); ("read-mostly", read_mostly); ("txn-bank", txn_bank);
            ("nemesis", nemesis) ]
