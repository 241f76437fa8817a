(* Unit tests for the core library's pure components: partitioning, the
   commit queue, and protocol messages. *)

open Spinnaker
module Lsn = Storage.Lsn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn e s = Lsn.make ~epoch:e ~seq:s

(* --- partition --------------------------------------------------------------- *)

let part ?(nodes = 10) ?(replication = 3) ?(key_space = 100_000) () =
  Partition.create ~nodes ~replication ~key_space

let test_partition_shape () =
  let p = part () in
  check_int "one range per node" 10 (Partition.ranges p);
  check_int "replication" 3 (Partition.replication p)

let test_partition_chained_declustering () =
  let p = part () in
  Alcotest.(check (list int)) "cohort 0" [ 0; 1; 2 ] (Partition.cohort p ~range:0);
  Alcotest.(check (list int)) "cohort 8 wraps" [ 8; 9; 0 ] (Partition.cohort p ~range:8);
  Alcotest.(check (list int)) "cohort 9 wraps" [ 9; 0; 1 ] (Partition.cohort p ~range:9)

let test_partition_node_ranges_inverse () =
  let p = part () in
  for node = 0 to 9 do
    let ranges = Partition.ranges_of_node p ~node in
    check_int "member of 3 cohorts" 3 (List.length ranges);
    List.iter
      (fun r ->
        check_bool "cohort contains node" true (List.mem node (Partition.cohort p ~range:r)))
      ranges
  done

let test_partition_bounds_cover_space () =
  let p = part () in
  let lo0, _ = Partition.range_bounds p ~range:0 in
  let _, hi9 = Partition.range_bounds p ~range:9 in
  Alcotest.(check string) "starts at 0" (Partition.key_of_int p 0) lo0;
  Alcotest.(check string) "ends at key_space" "100000" hi9

let prop_route_within_cohorted_range =
  QCheck.Test.make ~name:"partition: every key routes to a valid range" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let r = Partition.route p (Partition.key_of_int p k) in
      r >= 0 && r < 10 && List.length (Partition.cohort p ~range:r) = 3)

let prop_route_respects_bounds =
  QCheck.Test.make ~name:"partition: routed range's bounds contain the key" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let key = Partition.key_of_int p k in
      let r = Partition.route p key in
      let lo, hi = Partition.range_bounds p ~range:r in
      String.compare lo key <= 0 && String.compare key hi < 0)

let prop_key_encoding_order_preserving =
  QCheck.Test.make ~name:"partition: key encoding preserves numeric order" ~count:300
    QCheck.(pair (int_bound 99_999) (int_bound 99_999))
    (fun (a, b) ->
      let p = part () in
      compare a b = compare (Partition.key_of_int p a) (Partition.key_of_int p b))

(* --- commit queue -------------------------------------------------------------- *)

let add q ~l () =
  Commit_queue.add q ~lsn:l
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "v"; version = l.Lsn.seq })
    ~timestamp:0 ()

let test_queue_commit_order_and_quorum () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  add q ~l:(lsn 1 3) ();
  (* Nothing commits unforced. *)
  Commit_queue.add_ack q ~from:7 ~upto:(lsn 1 3);
  check_int "unforced" 0 (List.length (Commit_queue.pop_committable q ~acks_needed:1));
  Commit_queue.mark_forced_upto q (lsn 1 3);
  let committed = Commit_queue.pop_committable q ~acks_needed:1 in
  check_int "all commit in order" 3 (List.length committed);
  check_bool "ascending" true
    (List.for_all2
       (fun (a : Commit_queue.entry) s -> Lsn.equal a.lsn (lsn 1 s))
       committed [ 1; 2; 3 ])

let test_queue_commit_stops_at_gap () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q (lsn 1 2);
  (* A cumulative ack covering both entries commits both. *)
  Commit_queue.add_ack q ~from:9 ~upto:(lsn 1 2);
  check_int "ack covers both" 2 (List.length (Commit_queue.pop_committable q ~acks_needed:1));
  let q2 = Commit_queue.create () in
  add q2 ~l:(lsn 1 1) ();
  add q2 ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q2 (lsn 1 2);
  (* Only the second entry is acked: commit order must stall at entry 1. *)
  List.iter
    (fun (e : Commit_queue.entry) -> if Lsn.equal e.lsn (lsn 1 2) then e.ackers <- [ 5 ])
    (Commit_queue.to_list q2);
  check_int "gap blocks commit" 0 (List.length (Commit_queue.pop_committable q2 ~acks_needed:1));
  check_int "entries retained" 2 (Commit_queue.length q2)

let test_queue_duplicate_acks_counted_once () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  Commit_queue.mark_forced_upto q (lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  check_int "one acker twice is not quorum of 2" 0
    (List.length (Commit_queue.pop_committable q ~acks_needed:2));
  Commit_queue.add_ack q ~from:4 ~upto:(lsn 1 1);
  check_int "two distinct ackers" 1 (List.length (Commit_queue.pop_committable q ~acks_needed:2))

let test_queue_pop_upto () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let popped = Commit_queue.pop_upto q (lsn 1 2) in
  check_int "popped prefix" 2 (List.length popped);
  check_int "rest stays" 2 (Commit_queue.length q)

let test_queue_drop_above () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let dropped = Commit_queue.drop_above q (lsn 1 2) in
  check_int "dropped suffix" 2 (List.length dropped);
  check_int "prefix stays" 2 (Commit_queue.length q)

let test_queue_latest_version_overlay () =
  let q = Commit_queue.create () in
  Commit_queue.add q ~lsn:(lsn 1 1)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "a"; version = 5 })
    ~timestamp:0 ();
  Commit_queue.add q ~lsn:(lsn 1 2)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "b"; version = 6 })
    ~timestamp:0 ();
  Alcotest.(check (option int)) "newest pending version" (Some 6)
    (Commit_queue.latest_version_for q ("k", "c"));
  Alcotest.(check (option int)) "absent coord" None
    (Commit_queue.latest_version_for q ("other", "c"))

let prop_queue_commits_exactly_once =
  QCheck.Test.make ~name:"commit queue: every entry commits exactly once" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Commit_queue.create () in
      for s = 1 to n do
        add q ~l:(lsn 1 s) ()
      done;
      Commit_queue.mark_forced_upto q (lsn 1 n);
      Commit_queue.add_ack q ~from:1 ~upto:(lsn 1 n);
      let first = Commit_queue.pop_committable q ~acks_needed:1 in
      let second = Commit_queue.pop_committable q ~acks_needed:1 in
      List.length first = n && second = [] && Commit_queue.is_empty q)

(* The commit queue as two persistent LSN maps (every entry, and the
   unforced ones), kept as the reference for the array-backed queue. It
   differs from the map-based queue it was taken from in one place: a
   re-added LSN also withdraws the replaced entry's version-overlay pairs,
   which that queue leaked when the new op wrote other coordinates. *)
module Map_queue = struct
  module Lsn_map = Map.Make (Lsn)

  type t = {
    mutable entries : Commit_queue.entry Lsn_map.t;
    mutable unforced : Commit_queue.entry Lsn_map.t;
    versions : (Storage.Row.coord, (Lsn.t * int) list) Hashtbl.t;
    acked_upto : (int, Lsn.t) Hashtbl.t;
  }

  let create () =
    {
      entries = Lsn_map.empty;
      unforced = Lsn_map.empty;
      versions = Hashtbl.create 8;
      acked_upto = Hashtbl.create 8;
    }

  let rec iter_writes f = function
    | Storage.Log_record.Put { key; col; version; _ } -> f (key, col) version
    | Storage.Log_record.Delete { key; col; version } -> f (key, col) version
    | Storage.Log_record.Batch ops -> List.iter (iter_writes f) ops
    | _ -> ()

  let index_add t lsn op =
    iter_writes
      (fun coord version ->
        let rec ins = function
          | [] -> [ (lsn, version) ]
          | ((l, _) :: _) as rest when Lsn.(l <= lsn) -> (lsn, version) :: rest
          | hd :: tl -> hd :: ins tl
        in
        let cur = Option.value ~default:[] (Hashtbl.find_opt t.versions coord) in
        Hashtbl.replace t.versions coord (ins cur))
      op

  let index_remove t (e : Commit_queue.entry) =
    iter_writes
      (fun coord _ ->
        match Hashtbl.find_opt t.versions coord with
        | None -> ()
        | Some l -> (
          match List.filter (fun (l', _) -> not (Lsn.equal l' e.lsn)) l with
          | [] -> Hashtbl.remove t.versions coord
          | l -> Hashtbl.replace t.versions coord l))
      e.op

  let remove_entry t (e : Commit_queue.entry) =
    t.entries <- Lsn_map.remove e.lsn t.entries;
    if not e.forced then t.unforced <- Lsn_map.remove e.lsn t.unforced;
    index_remove t e

  let add t ~lsn ~op ~timestamp ?origin ?repl_span () =
    let entry =
      { Commit_queue.lsn; op; timestamp; origin; forced = false; ackers = []; repl_span }
    in
    Option.iter (index_remove t) (Lsn_map.find_opt lsn t.entries);
    t.entries <- Lsn_map.add lsn entry t.entries;
    t.unforced <- Lsn_map.add lsn entry t.unforced;
    index_add t lsn op;
    let rewind =
      Hashtbl.fold (fun from applied acc -> if Lsn.(lsn <= applied) then from :: acc else acc)
        t.acked_upto []
    in
    List.iter (fun from -> Hashtbl.replace t.acked_upto from Lsn.zero) rewind

  let mem t lsn = Lsn_map.mem lsn t.entries
  let is_empty t = Lsn_map.is_empty t.entries
  let length t = Lsn_map.cardinal t.entries
  let min_lsn t = Option.map fst (Lsn_map.min_binding_opt t.entries)
  let max_lsn t = Option.map fst (Lsn_map.max_binding_opt t.entries)

  let rec mark_forced_upto t upto =
    match Lsn_map.min_binding_opt t.unforced with
    | Some (lsn, e) when Lsn.(lsn <= upto) ->
      e.forced <- true;
      t.unforced <- Lsn_map.remove lsn t.unforced;
      mark_forced_upto t upto
    | _ -> ()

  let mark_forced t lsn =
    match Lsn_map.find_opt lsn t.entries with
    | Some e when not e.forced ->
      e.forced <- true;
      t.unforced <- Lsn_map.remove lsn t.unforced
    | _ -> ()

  let origin_at t lsn =
    match Lsn_map.find_opt lsn t.entries with Some e -> e.origin | None -> None

  let add_ack t ~from ~upto =
    let applied = Option.value ~default:Lsn.zero (Hashtbl.find_opt t.acked_upto from) in
    if Lsn.(upto > applied) then begin
      Lsn_map.iter
        (fun l (e : Commit_queue.entry) ->
          if Lsn.(l > applied && l <= upto) && not (List.mem from e.ackers) then
            e.ackers <- from :: e.ackers)
        t.entries;
      Hashtbl.replace t.acked_upto from upto
    end

  let pop_while t ok =
    let rec go acc =
      match Lsn_map.min_binding_opt t.entries with
      | Some (_, e) when ok e ->
        remove_entry t e;
        go (e :: acc)
      | _ -> List.rev acc
    in
    go []

  let pop_committable t ~acks_needed =
    pop_while t (fun e -> e.forced && List.length e.ackers >= acks_needed)

  let pop_upto t upto = pop_while t (fun e -> Lsn.(e.lsn <= upto))

  let pop_contiguous t ~from ~upto =
    let prev = ref from.Lsn.seq in
    pop_while t (fun e ->
        let ok = Lsn.(e.lsn <= upto) && e.lsn.Lsn.seq = !prev + 1 in
        if ok then prev := e.lsn.Lsn.seq;
        ok)

  (* The unmemoized walk: the chain of forced, seq-contiguous entries from
     the head. *)
  let contiguous_forced_upto t ~from =
    let rec go prev best = function
      | (lsn, (e : Commit_queue.entry)) :: rest when lsn.Lsn.seq = prev + 1 && e.forced ->
        go lsn.Lsn.seq (Some lsn) rest
      | _ -> best
    in
    go from.Lsn.seq None (Lsn_map.bindings t.entries)

  let remove t lsn =
    let e = Lsn_map.find_opt lsn t.entries in
    Option.iter (remove_entry t) e;
    e

  let drop_above t lsn =
    let dropped = List.filter (fun (e : Commit_queue.entry) -> Lsn.(e.lsn > lsn))
        (List.map snd (Lsn_map.bindings t.entries)) in
    List.iter (remove_entry t) dropped;
    dropped

  let latest_version_for t coord =
    match Hashtbl.find_opt t.versions coord with Some ((_, v) :: _) -> Some v | _ -> None

  let to_list t = List.map snd (Lsn_map.bindings t.entries)
end

(* Differential check of the array-backed queue against [Map_queue]: random
   programs over the whole API, with every entry, lookup and frontier
   compared after every step and the version overlay whenever the program
   asks (its first ask builds the queue's overlay from whatever is queued).
   Appends at the tail dominate, as on the write path; random LSNs over two
   epochs and a small seq range add back-fills, re-adds of queued LSNs
   (which rewind acked followers), holes, removals from the middle and
   replacements of forced entries. *)
type diff_cmd =
  | D_append of int  (** the next seq after the queue's last, with a write to key [k] *)
  | D_add of Lsn.t * int
  | D_readd of int  (** re-add the n-th queued entry with a different op *)
  | D_force of Lsn.t
  | D_force_upto of Lsn.t
  | D_ack of int * Lsn.t
  | D_pop_committable of int
  | D_pop_upto of Lsn.t
  | D_pop_contiguous of Lsn.t
  | D_frontier of Lsn.t option  (** [None]: the follower's current [from] *)
  | D_drop_above of Lsn.t
  | D_remove of Lsn.t
  | D_versions  (** the overlay answer for every key; the first builds it *)

let pp_diff_cmd = function
  | D_append k -> Printf.sprintf "append k%d" k
  | D_add (l, k) -> Printf.sprintf "add %s k%d" (Lsn.to_string l) k
  | D_readd n -> Printf.sprintf "readd #%d" n
  | D_force l -> "force " ^ Lsn.to_string l
  | D_force_upto l -> "force_upto " ^ Lsn.to_string l
  | D_ack (f, l) -> Printf.sprintf "ack %d %s" f (Lsn.to_string l)
  | D_pop_committable n -> Printf.sprintf "pop_committable %d" n
  | D_pop_upto l -> "pop_upto " ^ Lsn.to_string l
  | D_pop_contiguous l -> "pop_contiguous " ^ Lsn.to_string l
  | D_frontier None -> "frontier"
  | D_frontier (Some l) -> "frontier " ^ Lsn.to_string l
  | D_drop_above l -> "drop_above " ^ Lsn.to_string l
  | D_remove l -> "remove " ^ Lsn.to_string l
  | D_versions -> "versions"

let arb_diff_program =
  let open QCheck.Gen in
  let l = map2 (fun e s -> lsn e s) (int_range 1 2) (int_range 0 14) in
  let k = int_range 0 3 in
  let cmd =
    frequency
      [
        (8, map (fun k -> D_append k) k);
        (3, map2 (fun l k -> D_add (l, k)) l k);
        (1, map (fun n -> D_readd n) (int_range 0 8));
        (4, map (fun l -> D_force l) l);
        (2, map (fun l -> D_force_upto l) l);
        (3, map2 (fun f l -> D_ack (f, l)) (int_range 1 2) l);
        (1, map (fun n -> D_pop_committable n) (int_range 0 2));
        (1, map (fun l -> D_pop_upto l) l);
        (1, map (fun l -> D_pop_contiguous l) l);
        (3, map (fun l -> D_frontier l) (oneof [ return None; map Option.some l ]));
        (1, map (fun l -> D_drop_above l) l);
        (2, map (fun l -> D_remove l) l);
        (2, return D_versions);
      ]
  in
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map pp_diff_cmd cmds))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 80) cmd)

(* Key [k] and, for odd seqs, a batch that also writes key [k + 1] twice
   (a tie the overlay must resolve to the later op); every other op
   carries an origin. *)
let diff_op ~seq ~k =
  let put key version =
    Storage.Log_record.Put { key = Printf.sprintf "k%d" key; col = "c"; value = "v"; version }
  in
  if seq mod 2 = 1 then
    Storage.Log_record.Batch [ put k seq; put (k + 1) (seq + 100); put (k + 1) (seq + 200) ]
  else if seq mod 3 = 0 then
    Storage.Log_record.Delete { key = Printf.sprintf "k%d" k; col = "c"; version = seq }
  else put k seq

let diff_origin ~seq =
  if seq mod 2 = 0 then Some { Storage.Log_record.client = seq; request_id = seq; floor = 0 }
  else None

let prop_queue_matches_map_model =
  QCheck.Test.make ~name:"commit queue: array queue matches the map model" ~count:500
    arb_diff_program (fun cmds ->
      let q = Commit_queue.create () and m = Map_queue.create () in
      let from = ref Lsn.zero in
      let both_add l ~k =
        let op = diff_op ~seq:l.Lsn.seq ~k and timestamp = l.Lsn.seq * 10 in
        let origin = diff_origin ~seq:l.Lsn.seq in
        let repl_span = if k = 0 then Some l.Lsn.seq else None in
        Commit_queue.add q ~lsn:l ~op ~timestamp ?origin ?repl_span ();
        Map_queue.add m ~lsn:l ~op ~timestamp ?origin ?repl_span ()
      in
      let same_entry (a : Commit_queue.entry) (b : Commit_queue.entry) =
        Lsn.equal a.lsn b.lsn && a.op = b.op && a.timestamp = b.timestamp
        && a.origin = b.origin && a.forced = b.forced && a.ackers = b.ackers
        && a.repl_span = b.repl_span
      in
      let same_entries a b = List.length a = List.length b && List.for_all2 same_entry a b in
      let probes = List.concat_map (fun e -> List.init 16 (fun s -> lsn e s)) [ 1; 2 ] in
      let agrees () =
        same_entries (Commit_queue.to_list q) (Map_queue.to_list m)
        && Commit_queue.length q = Map_queue.length m
        && Commit_queue.is_empty q = Map_queue.is_empty m
        && Option.equal Lsn.equal (Commit_queue.min_lsn q) (Map_queue.min_lsn m)
        && Option.equal Lsn.equal (Commit_queue.max_lsn q) (Map_queue.max_lsn m)
        && List.for_all
             (fun l ->
               Commit_queue.mem q l = Map_queue.mem m l
               && Commit_queue.origin_at q l = Map_queue.origin_at m l)
             probes
      in
      let popped (a, b) =
        List.iter (fun (e : Commit_queue.entry) -> from := Lsn.max !from e.lsn) a;
        same_entries a b
      in
      List.for_all
        (fun cmd ->
          let step_ok =
            match cmd with
            | D_append k ->
              let l = Option.fold ~none:(lsn 1 1) ~some:Lsn.next (Map_queue.max_lsn m) in
              both_add l ~k;
              true
            | D_add (l, k) ->
              both_add l ~k;
              true
            | D_readd n -> (
              match List.nth_opt (Map_queue.to_list m) n with
              | Some e ->
                both_add e.lsn ~k:3;
                true
              | None -> true)
            | D_force l ->
              Commit_queue.mark_forced q l;
              Map_queue.mark_forced m l;
              true
            | D_force_upto l ->
              Commit_queue.mark_forced_upto q l;
              Map_queue.mark_forced_upto m l;
              true
            | D_ack (f, l) ->
              Commit_queue.add_ack q ~from:f ~upto:l;
              Map_queue.add_ack m ~from:f ~upto:l;
              true
            | D_pop_committable n ->
              popped
                ( Commit_queue.pop_committable q ~acks_needed:n,
                  Map_queue.pop_committable m ~acks_needed:n )
            | D_pop_upto l -> popped (Commit_queue.pop_upto q l, Map_queue.pop_upto m l)
            | D_pop_contiguous l ->
              let f = !from in
              popped
                ( Commit_queue.pop_contiguous q ~from:f ~upto:l,
                  Map_queue.pop_contiguous m ~from:f ~upto:l )
            | D_frontier l ->
              let f = Option.value ~default:!from l in
              (* Asked twice: the second resumes from the first's memo. *)
              List.for_all
                (fun () ->
                  Option.equal Lsn.equal
                    (Commit_queue.contiguous_forced_upto q ~from:f)
                    (Map_queue.contiguous_forced_upto m ~from:f))
                [ (); () ]
            | D_drop_above l ->
              same_entries (Commit_queue.drop_above q l) (Map_queue.drop_above m l)
            | D_remove l ->
              Option.equal same_entry (Commit_queue.remove q l) (Map_queue.remove m l)
            | D_versions ->
              List.for_all
                (fun k ->
                  let coord = (Printf.sprintf "k%d" k, "c") in
                  Commit_queue.latest_version_for q coord = Map_queue.latest_version_for m coord)
                [ 0; 1; 2; 3; 4 ]
          in
          step_ok
          && agrees ()
          && Option.equal Lsn.equal
               (Commit_queue.contiguous_forced_upto q ~from:!from)
               (Map_queue.contiguous_forced_upto m ~from:!from))
        cmds)

(* Entries leave the queue for good: once popped or dropped, nothing in the
   queue (a cleared slot, the array's spare tail) keeps their ops alive. *)
let test_queue_releases_removed_entries () =
  let n = 1000 in
  let q = Commit_queue.create () in
  let ops = Weak.create n in
  let add_seq i =
    let op =
      Storage.Log_record.Put { key = Printf.sprintf "k%d" i; col = "c"; value = "v"; version = i }
    in
    Weak.set ops (i - 1) (Some op);
    Commit_queue.add q ~lsn:(lsn 1 i) ~op ~timestamp:0 ()
  in
  let live () =
    Gc.full_major ();
    List.filter (Weak.check ops) (List.init n Fun.id)
  in
  let expect what ~from ~until =
    Alcotest.(check (list int)) what (List.init (until - from) (fun i -> from + i)) (live ())
  in
  (* Sixteen fill the first array; popping ten and appending one shifts the
     six survivors down instead of growing, and the slots they left must
     not keep them alive once they are popped too. *)
  for i = 1 to 16 do
    add_seq i
  done;
  ignore (Commit_queue.pop_upto q (lsn 1 10));
  add_seq 17;
  ignore (Commit_queue.pop_upto q (lsn 1 16));
  expect "shifted-down entries released" ~from:16 ~until:17;
  ignore (Commit_queue.pop_upto q (lsn 1 17));
  for i = 1 to n do
    add_seq i
  done;
  expect "all queued" ~from:0 ~until:n;
  ignore (Commit_queue.pop_upto q (lsn 1 400));
  expect "popped head released" ~from:400 ~until:n;
  ignore (Commit_queue.drop_above q (lsn 1 900));
  expect "dropped tail released" ~from:400 ~until:900;
  Commit_queue.mark_forced_upto q (lsn 1 n);
  Commit_queue.add_ack q ~from:1 ~upto:(lsn 1 n);
  ignore (Commit_queue.pop_committable q ~acks_needed:1);
  expect "committed entries released" ~from:0 ~until:0;
  check_bool "emptied" true (Commit_queue.is_empty q)

(* The logical-truncation scan's merge walk against the quadratic filter it
   replaced, on ascending LSN lists. *)
let prop_lsn_diff_sorted =
  let arb_lsns =
    QCheck.(
      map
        (fun ps -> List.sort_uniq Lsn.compare (List.map (fun (e, s) -> lsn e s) ps))
        (small_list (pair (int_range 1 3) (int_range 0 20))))
  in
  QCheck.Test.make ~name:"lsn: sorted difference equals filter" ~count:500
    (QCheck.pair arb_lsns arb_lsns) (fun (a, b) ->
      List.equal Lsn.equal (Lsn.diff_sorted a b)
        (List.filter (fun l -> not (List.exists (Lsn.equal l) b)) a))

(* --- messages -------------------------------------------------------------------- *)

let test_message_classification () =
  check_bool "get is read" false
    (Message.is_write (Message.Get { key = "k"; col = "c"; consistent = true; token = Lsn.zero }));
  check_bool "put is write" true
    (Message.is_write (Message.Write { cells = [ ("k", "c", Some "v", None) ] }));
  check_bool "cond delete is write" true
    (Message.is_write (Message.Write { cells = [ ("k", "c", None, Some 1) ] }))

let test_message_new_ops_classified () =
  check_bool "scan is read" false
    (Message.is_write
       (Message.Scan
          { start_key = "a"; end_key = "b"; limit = 10; consistent = true; token = Lsn.zero }));
  let txn = Message.Write { cells = [ ("k", "c", Some "v", None); ("k2", "c", Some "v", None) ] } in
  check_bool "txn is write" true (Message.is_write txn);
  Alcotest.(check string) "txn routes by first key" "k" (Message.key_of_op txn);
  Alcotest.(check string)
    "scan routes by start key" "s"
    (Message.key_of_op
       (Message.Scan
          { start_key = "s"; end_key = "t"; limit = 1; consistent = false; token = Lsn.zero }))

let test_batch_op_helpers () =
  let batch =
    Storage.Log_record.Batch
      [
        Storage.Log_record.Put { key = "a"; col = "c"; value = "1"; version = 1 };
        Storage.Log_record.Delete { key = "b"; col = "c"; version = 2 };
      ]
  in
  check_int "flatten" 2 (List.length (Storage.Log_record.flatten batch));
  Alcotest.(check (pair string string)) "coord is first" ("a", "c") (Storage.Log_record.op_coord batch);
  let cells = Storage.Log_record.cells_of_write batch ~lsn:(lsn 1 9) ~timestamp:7 in
  check_int "two cells" 2 (List.length cells);
  check_bool "delete is tombstone" true
    (match cells with [ _; (_, cell) ] -> Storage.Row.is_tombstone cell | _ -> false);
  check_bool "shared lsn" true
    (List.for_all (fun (_, (c : Storage.Row.cell)) -> Lsn.equal c.lsn (lsn 1 9)) cells)

let test_message_sizes_scale () =
  let request value =
    Message.Request
      {
        client = 1;
        request_id = 1;
        floor = 1;
        op = Message.Write { cells = [ ("k", "c", Some value, None) ] };
      }
  in
  let small = Message.size (request "x") in
  let big = Message.size (request (String.make 4096 'x')) in
  check_bool "4KB put is ~4KB bigger" true (big - small > 4000)

(* A Propose's size as it was computed when transactional records were
   sized by building their cells: 8 bytes plus the key, column and value
   bytes of every cell the record installs. *)
let size_of_write_via_cells op =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Storage.Log_record.Put { key; col; value; _ } ->
        String.length key + String.length col + String.length value
      | Storage.Log_record.Delete { key; col; _ } -> String.length key + String.length col
      | Storage.Log_record.Txn_prepare _ | Storage.Log_record.Txn_decision _
      | Storage.Log_record.Txn_resolve _ | Storage.Log_record.Install_cell _ ->
        List.fold_left
          (fun a ((key, col), (cell : Storage.Row.cell)) ->
            a + String.length key + String.length col
            + (match cell.value with Some v -> String.length v | None -> 0))
          8
          (Storage.Log_record.cells_of_write op ~lsn:Lsn.zero ~timestamp:0)
      | Storage.Log_record.Batch _ | Storage.Log_record.Cohort_change _
      | Storage.Log_record.Split _ ->
        0)
    24
    (Storage.Log_record.flatten op)

let log_op_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 5) in
  let fence = map2 (fun epoch seq -> Lsn.make ~epoch ~seq) nat nat in
  let prim =
    oneof
      [
        map3
          (fun key col value -> Storage.Log_record.Put { key; col; value; version = 1 })
          str str str;
        map2 (fun key col -> Storage.Log_record.Delete { key; col; version = 1 }) str str;
      ]
  in
  oneof
    [
      prim;
      map (fun ops -> Storage.Log_record.Batch ops) (list_size (int_bound 4) prim);
      map2
        (fun (txn, anchor, fence) writes ->
          Storage.Log_record.Txn_prepare { txn; anchor; fence; writes })
        (triple str str fence)
        (list_size (int_bound 4) (triple str str (opt str)));
      map3
        (fun (txn, anchor) commit ts -> Storage.Log_record.Txn_decision { txn; anchor; commit; ts })
        (pair str str) bool int;
      map3
        (fun txn commit writes -> Storage.Log_record.Txn_resolve { txn; commit; ts = 7; writes })
        str bool
        (list_size (int_bound 4) (quad str str (opt str) nat));
      map3
        (fun key col value ->
          Storage.Log_record.Install_cell
            {
              coord = (key, col);
              cell =
                { Storage.Row.value; version = 2; lsn = lsn 1 1; timestamp = 0; txn_ts = None };
            })
        str str (opt str);
      return (Storage.Log_record.Cohort_change { add = Some 1; remove = None });
      map (fun at -> Storage.Log_record.Split { at; new_range = 3 }) str;
    ]

let prop_propose_size_matches_cells =
  QCheck.Test.make ~name:"message: propose size = the cell-built formula" ~count:500
    (QCheck.make log_op_gen) (fun op ->
      let writes = [ (lsn 1 1, op, 0, None) ] in
      Message.size (Message.Propose { range = 0; epoch = 1; writes; piggyback_cmt = None })
      = 32 + size_of_write_via_cells op)

(* The request sizes of the four single-cell writes as they were computed
   when each had its own [client_op] variant: 16 bytes of framing, plus 8
   for the expected version of a conditional one. *)
type single_write =
  | Put of string * string * string
  | Delete of string * string
  | Conditional_put of string * string * string * int
  | Conditional_delete of string * string * int

let per_variant_size = function
  | Put (key, col, value) -> String.length key + String.length col + String.length value + 16
  | Delete (key, col) -> String.length key + String.length col + 16
  | Conditional_put (key, col, value, _) ->
    String.length key + String.length col + String.length value + 24
  | Conditional_delete (key, col, _) -> String.length key + String.length col + 24

let single_write_cell = function
  | Put (key, col, value) -> (key, col, Some value, None)
  | Delete (key, col) -> (key, col, None, None)
  | Conditional_put (key, col, value, expected) -> (key, col, Some value, Some expected)
  | Conditional_delete (key, col, expected) -> (key, col, None, Some expected)

let prop_write_size_matches_variants =
  let gen =
    let open QCheck.Gen in
    let str = string_size ~gen:char (int_bound 12) in
    oneof
      [
        map3 (fun k c v -> Put (k, c, v)) str str str;
        map2 (fun k c -> Delete (k, c)) str str;
        map3 (fun (k, c) v e -> Conditional_put (k, c, v, e)) (pair str str) str nat;
        map3 (fun k c e -> Conditional_delete (k, c, e)) str str nat;
      ]
  in
  QCheck.Test.make ~name:"message: write size = the per-variant formula" ~count:500
    (QCheck.make gen) (fun w ->
      let request op = Message.Request { client = 1; request_id = 1; floor = 0; op } in
      Message.size (request (Message.Write { cells = [ single_write_cell w ] }))
      = per_variant_size w + 16)

let suite =
  [
    Alcotest.test_case "partition: shape" `Quick test_partition_shape;
    Alcotest.test_case "partition: chained declustering (Fig 2)" `Quick
      test_partition_chained_declustering;
    Alcotest.test_case "partition: node<->range inverse" `Quick test_partition_node_ranges_inverse;
    Alcotest.test_case "partition: bounds cover key space" `Quick test_partition_bounds_cover_space;
    QCheck_alcotest.to_alcotest prop_route_within_cohorted_range;
    QCheck_alcotest.to_alcotest prop_route_respects_bounds;
    QCheck_alcotest.to_alcotest prop_key_encoding_order_preserving;
    Alcotest.test_case "queue: quorum + order" `Quick test_queue_commit_order_and_quorum;
    Alcotest.test_case "queue: gap blocks commit" `Quick test_queue_commit_stops_at_gap;
    Alcotest.test_case "queue: duplicate acks" `Quick test_queue_duplicate_acks_counted_once;
    Alcotest.test_case "queue: pop_upto" `Quick test_queue_pop_upto;
    Alcotest.test_case "queue: drop_above" `Quick test_queue_drop_above;
    Alcotest.test_case "queue: version overlay" `Quick test_queue_latest_version_overlay;
    QCheck_alcotest.to_alcotest prop_queue_commits_exactly_once;
    QCheck_alcotest.to_alcotest prop_queue_matches_map_model;
    Alcotest.test_case "queue: removed entries are released" `Quick
      test_queue_releases_removed_entries;
    QCheck_alcotest.to_alcotest prop_lsn_diff_sorted;
    Alcotest.test_case "message: read/write classification" `Quick test_message_classification;
    Alcotest.test_case "message: size accounting" `Quick test_message_sizes_scale;
    QCheck_alcotest.to_alcotest prop_propose_size_matches_cells;
    QCheck_alcotest.to_alcotest prop_write_size_matches_variants;
    Alcotest.test_case "message: txn/scan classification" `Quick test_message_new_ops_classified;
    Alcotest.test_case "log record: batch helpers" `Quick test_batch_op_helpers;
  ]
