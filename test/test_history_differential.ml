(* Differential tests of the history checkers. The reference oracles below
   are the original quadratic rules — every pair of reads, every read
   against every acknowledged write, every read against its key's whole
   writer list — run over the test's own op lists. [History.check] and
   [History.check_serializable] must agree with them on every generated
   history: the same violation classes per key, with the same counts of
   violating reads, and the same dependency cycles.

   Generated histories are legal by construction (a serial writer with
   overlapping readers that observe what was current at some instant of
   their interval; transactions in a serial commit order that read the
   latest committed version), and about half of them are mutated with an
   anomaly. A property asserts that enough cases stay clean to test the
   clean path. *)

module History = Workload.History

let at_us = Sim.Sim_time.at_us

(* --- register histories ---------------------------------------------------- *)

type write = { seq : int; w_inv : int; w_comp : int; acked : bool }
type read = { obs : int option; inv : int; comp : int }
type op = Write of write | Read of read

type classes = (string * int) list
(* violation class -> number of violating reads, sorted by class *)

(* The original rules, one verdict per pair, folded to violating reads. *)
let reference_check (ops : (string * op) list) : (string * classes) list =
  let keys = List.sort_uniq String.compare (List.map fst ops) in
  List.filter_map
    (fun key ->
      (* Newest first, as the recorder keeps them. *)
      let mine = List.rev (List.filter_map (fun (k, op) -> if k = key then Some op else None) ops) in
      let writes = List.filter_map (function Write w -> Some w | Read _ -> None) mine in
      let reads =
        List.mapi (fun i r -> (i, r)) (List.filter_map (function Read r -> Some r | Write _ -> None) mine)
      in
      if reads = [] then None
      else begin
        let marked = Hashtbl.create 16 in
        let mark cls i = Hashtbl.replace marked (cls, i) () in
        List.iter
          (fun (i, r) ->
            match r.obs with
            | None -> ()
            | Some s -> (
              match List.find_opt (fun w -> w.seq = s) writes with
              | None -> mark "phantom" i
              | Some w -> if r.comp < w.w_inv then mark "future" i))
          reads;
        let by_completion = List.stable_sort (fun (_, a) (_, b) -> compare a.comp b.comp) reads in
        let rec monotonic = function
          | (_, a) :: rest ->
            List.iter
              (fun (j, b) ->
                if a.comp < b.inv then
                  match (a.obs, b.obs) with
                  | Some va, Some vb when vb < va -> mark "travel" j
                  | Some _, None -> mark "lost-key" j
                  | _ -> ())
              rest;
            monotonic rest
          | [] -> ()
        in
        monotonic by_completion;
        List.iter
          (fun w ->
            if w.acked then
              List.iter
                (fun (j, r) ->
                  if w.w_comp < r.inv then
                    match r.obs with
                    | Some s when s >= w.seq -> ()
                    | Some _ -> mark "stale" j
                    | None -> mark "unseen-ack" j)
                reads)
          writes;
        let counts = Hashtbl.create 8 in
        Hashtbl.iter
          (fun (cls, _) () ->
            Hashtbl.replace counts cls (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls)))
          marked;
        let classes = List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []) in
        if classes = [] then None else Some (key, classes)
      end)
    keys

let witness_class text =
  let has sub =
    let n = String.length sub and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = sub || at (i + 1)) in
    at 0
  in
  if has "never written" then "phantom"
  else if has "before its write was invoked" || has "before the write they observed" then "future"
  else if has "travel back in time" then "travel"
  else if has "lost the key" then "lost-key"
  else if has "observed only" || has "observed an older seq" then "stale"
  else if has "observed nothing" then "unseen-ack"
  else Alcotest.failf "unclassified violation: %s" text

(* A summary line starts with the count of violating reads. *)
let summary_count text =
  match String.index_opt text ' ' with
  | Some i -> int_of_string_opt (String.sub text 0 i)
  | None -> None

(* The checker's report folded to the same shape as [reference_check]. *)
let checked_classes (vs : History.violation list) : (string * classes) list =
  let keys = List.sort_uniq String.compare (List.map (fun (v : History.violation) -> v.key) vs) in
  List.map
    (fun key ->
      let lines = List.filter (fun (v : History.violation) -> v.key = key) vs in
      let summaries =
        List.filter_map
          (fun (v : History.violation) ->
            Option.map (fun n -> (witness_class v.explanation, n)) (summary_count v.explanation))
          lines
      in
      let classes =
        if summaries <> [] then summaries
        else begin
          let counts = Hashtbl.create 8 in
          List.iter
            (fun (v : History.violation) ->
              let c = witness_class v.explanation in
              Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
            lines;
          Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []
        end
      in
      (key, List.sort compare classes))
    keys

let history_of ops =
  let h = History.create () in
  List.iter
    (fun (key, op) ->
      match op with
      | Write { seq; w_inv; w_comp; acked } ->
        History.record_write h ~key ~seq ~invoked:(at_us w_inv) ~completed:(at_us w_comp) ~acked
      | Read { obs; inv; comp } ->
        History.record_read h ~key ~observed:obs ~invoked:(at_us inv) ~completed:(at_us comp))
    ops;
  h

(* One key's legal history: a serial writer whose writes take effect at an
   instant inside their interval (an unacknowledged one maybe never), and
   readers that observe the newest write in effect at an instant inside
   theirs. Times sit on a 5 µs grid so that boundaries tie. *)
let gen_key rand key =
  let int lo hi = lo + Random.State.int rand (hi - lo + 1) in
  let grid lo hi = 5 * int (lo / 5) (hi / 5) in
  let n_writes = if Random.State.bool rand then int 0 6 else int 0 40 in
  let n_reads = if Random.State.bool rand then int 0 6 else int 0 60 in
  let clock = ref 0 in
  let writes =
    List.init n_writes (fun i ->
        let inv = !clock + grid 0 20 in
        let comp = inv + grid 5 60 in
        clock := comp;
        let acked = Random.State.int rand 8 > 0 in
        let effect = if acked || Random.State.bool rand then Some (inv + grid 0 (comp - inv)) else None in
        (i + 1, inv, comp, acked, effect))
  in
  let horizon = !clock + 50 in
  let reads =
    List.init n_reads (fun _ ->
        let inv = grid 0 horizon in
        let comp = inv + grid 0 80 in
        let at = inv + grid 0 (comp - inv) in
        let obs =
          List.fold_left
            (fun acc (seq, _, _, _, effect) ->
              match effect with Some e when e <= at -> Some seq | _ -> acc)
            None writes
        in
        (obs, inv, comp))
  in
  let writes = Array.of_list writes and reads = Array.of_list reads in
  (* About half the keys carry one anomaly. *)
  (if Random.State.bool rand && n_reads > 0 then
     let i = Random.State.int rand n_reads in
     let obs, inv, comp = reads.(i) in
     match Random.State.int rand 4 with
     | 0 ->
       (* Stale read: an older seq, or nothing. *)
       let older = match obs with Some s when s > 1 -> Some (int 1 (s - 1)) | _ -> None in
       reads.(i) <- (older, inv, comp)
     | 1 -> (* Phantom seq. *) reads.(i) <- (Some (n_writes + int 1 5), inv, comp)
     | 2 ->
       (* An acknowledged write nobody sees. *)
       if n_writes > 0 then begin
         let seq = int 1 n_writes in
         let _, w_inv, w_comp, _, _ = writes.(seq - 1) in
         writes.(seq - 1) <- (seq, w_inv, w_comp, true, None);
         let previous = if seq > 1 then Some (seq - 1) else None in
         Array.iteri
           (fun j (obs, inv, comp) -> if obs = Some seq then reads.(j) <- (previous, inv, comp))
           reads
       end
     | _ ->
       (* A read of the last write that completed before it was invoked. *)
       if n_writes > 0 then begin
         let _, w_inv, _, _, _ = writes.(n_writes - 1) in
         let comp = Stdlib.max 0 (w_inv - 5) in
         reads.(i) <- (Some n_writes, Stdlib.min inv comp, comp)
       end);
  List.map
    (fun (seq, w_inv, w_comp, acked, _) -> (w_comp, (key, Write { seq; w_inv; w_comp; acked })))
    (Array.to_list writes)
  @ List.map (fun (obs, inv, comp) -> (comp, (key, Read { obs; inv; comp }))) (Array.to_list reads)

(* Several keys, recorded in completion order — or, one time in four, in a
   random order, so that the checker's sort paths run too. *)
let gen_register_history =
  QCheck.Gen.(
    map
      (fun seed ->
        let rand = Random.State.make [| seed |] in
        let keys = 1 + Random.State.int rand 3 in
        let ops = List.concat (List.init keys (fun k -> gen_key rand (Printf.sprintf "k%d" k))) in
        let ops =
          if Random.State.int rand 4 = 0 then
            List.map snd (List.sort compare (List.map (fun o -> (Random.State.bits rand, snd o)) ops))
          else List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) ops)
        in
        ops)
      int)

let print_ops ops =
  String.concat "\n"
    (List.map
       (fun (k, op) ->
         match op with
         | Write { seq; w_inv; w_comp; acked } -> Printf.sprintf "%s W %d [%d,%d] %b" k seq w_inv w_comp acked
         | Read { obs; inv; comp } ->
           Printf.sprintf "%s R %s [%d,%d]" k
             (match obs with Some s -> string_of_int s | None -> "-")
             inv comp)
       ops)

let cases = 1000

let prop_check_matches_reference =
  QCheck.Test.make ~count:cases ~name:"check agrees with the quadratic reference"
    (QCheck.make ~print:print_ops gen_register_history)
    (fun ops ->
      let expected = reference_check ops in
      let got = checked_classes (History.check (history_of ops)) in
      if got <> expected then
        QCheck.Test.fail_reportf "expected %s@.got %s"
          (String.concat "; "
             (List.map
                (fun (k, cs) ->
                  k ^ ":" ^ String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) cs))
                expected))
          (String.concat "; "
             (List.map
                (fun (k, cs) ->
                  k ^ ":" ^ String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) cs))
                got))
      else true)

(* --- bank histories -------------------------------------------------------- *)

type txn = { id : string; ts : int; reads : (string * string option) list; writes : string list }

(* The original rules: string-keyed graph, ww successor found by walking the
   key's whole writer list for every read. Returns the uncommitted-read
   lines verbatim and each cycle as (least id, length). *)
let reference_serializable (txns : txn list) =
  let aborted = ref [] in
  let committed = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace committed x.id x) txns;
  let edges : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let add_edge u v =
    if not (String.equal u v) then begin
      let out =
        match Hashtbl.find_opt edges u with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace edges u h;
          h
      in
      Hashtbl.replace out v ()
    end
  in
  let writers_of = Hashtbl.create 16 in
  List.iter
    (fun x ->
      List.iter
        (fun key ->
          Hashtbl.replace writers_of key (x :: Option.value ~default:[] (Hashtbl.find_opt writers_of key)))
        (List.sort_uniq String.compare x.writes))
    (List.rev txns);
  let order = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key ws ->
      let ws = List.sort (fun a b -> compare (a.ts, a.id) (b.ts, b.id)) ws in
      Hashtbl.replace order key ws;
      let rec chain = function
        | a :: (b :: _ as rest) ->
          add_edge a.id b.id;
          chain rest
        | _ -> ()
      in
      chain ws)
    writers_of;
  let successor_of key from =
    match Hashtbl.find_opt order key with
    | None -> None
    | Some ws -> (
      match from with
      | None -> (match ws with w :: _ -> Some w | [] -> None)
      | Some id ->
        let rec after = function
          | a :: (b :: _) when String.equal a.id id -> Some b
          | _ :: rest -> after rest
          | [] -> None
        in
        after ws)
  in
  List.iter
    (fun x ->
      List.iter
        (fun (key, from) ->
          (match from with
          | Some w when not (Hashtbl.mem committed w) ->
            aborted :=
              ( key,
                Printf.sprintf "txn %s read %s, written by %s which never committed" x.id key w )
              :: !aborted
          | Some w -> add_edge w x.id
          | None -> ());
          match successor_of key from with
          | Some s when not (String.equal s.id x.id) -> add_edge x.id s.id
          | _ -> ())
        x.reads)
    txns;
  let out_of u =
    match Hashtbl.find_opt edges u with
    | None -> []
    | Some h -> Hashtbl.fold (fun v () acc -> v :: acc) h []
  in
  let index = Hashtbl.create 64 and lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (out_of v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      if List.length scc > 1 then sccs := scc :: !sccs
    end
  in
  Hashtbl.iter (fun u _ -> if not (Hashtbl.mem index u) then strongconnect u) edges;
  (* Shortest cycle through each component's least id, by BFS. *)
  let cycles =
    List.map
      (fun scc ->
        let start = List.hd (List.sort String.compare scc) in
        let dist = Hashtbl.create 16 in
        Hashtbl.replace dist start 0;
        let queue = Queue.create () in
        Queue.push start queue;
        let found = ref None in
        while !found = None && not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          List.iter
            (fun v ->
              if List.mem v scc && !found = None then
                if String.equal v start then found := Some (Hashtbl.find dist u + 1)
                else if not (Hashtbl.mem dist v) then begin
                  Hashtbl.replace dist v (Hashtbl.find dist u + 1);
                  Queue.push v queue
                end)
            (out_of u)
        done;
        (start, Option.get !found))
      !sccs
  in
  (List.sort compare !aborted, List.sort compare cycles)

let checked_serializable (vs : History.violation list) =
  let prefix = "dependency cycle: " in
  let np = String.length prefix in
  let aborted, cycles =
    List.partition_map
      (fun (v : History.violation) ->
        let e = v.explanation in
        if String.length e >= np && String.sub e 0 np = prefix then begin
          let tokens = String.split_on_char ' ' (String.sub e np (String.length e - np)) in
          Right (List.hd tokens, (List.length tokens - 1) / 2)
        end
        else Left (v.key, e))
      vs
  in
  (List.sort compare aborted, List.sort compare cycles)

(* A serial execution over a few accounts: each transaction reads the latest
   committed version of what it reads; commit timestamps follow the serial
   order. About half the histories then get one anomaly. *)
let gen_bank_history =
  QCheck.Gen.(
    map
      (fun seed ->
        let rand = Random.State.make [| seed |] in
        let int lo hi = lo + Random.State.int rand (hi - lo + 1) in
        let n_keys = int 1 5 and n = int 1 40 in
        let key k = Printf.sprintf "acct%d" k in
        let subset m = List.sort_uniq compare (List.init (int 0 m) (fun _ -> key (int 0 (n_keys - 1)))) in
        let last = Hashtbl.create 8 in
        let txns =
          Array.init n (fun i ->
              let id = Printf.sprintf "x%d" (int 0 9) ^ Printf.sprintf ".%d" i in
              let reads = List.map (fun k -> (k, Hashtbl.find_opt last k)) (subset 3) in
              let writes = subset 2 in
              List.iter (fun k -> Hashtbl.replace last k id) writes;
              { id; ts = 10 * (i + 1); reads; writes })
        in
        (if Random.State.bool rand && n >= 2 then
           let a = int 0 (n - 2) in
           let b = int (a + 1) (n - 1) in
           let k1 = key (int 0 (n_keys - 1)) and k2 = key (int 0 (n_keys - 1)) in
           let xa = txns.(a) and xb = txns.(b) in
           match Random.State.int rand 3 with
           | 0 ->
             (* G1c: each of a and b reads the other's write. *)
             txns.(a) <-
               { xa with writes = List.sort_uniq compare (k1 :: xa.writes); reads = (k2, Some xb.id) :: xa.reads };
             txns.(b) <-
               { xb with writes = List.sort_uniq compare (k2 :: xb.writes); reads = (k1, Some xa.id) :: xb.reads }
           | 1 ->
             (* Lost update: a and b both overwrite the version a read. *)
             let seen = List.assoc_opt k1 xa.reads |> Option.join in
             txns.(a) <-
               { xa with writes = List.sort_uniq compare (k1 :: xa.writes);
                         reads = (k1, seen) :: List.remove_assoc k1 xa.reads };
             txns.(b) <-
               { xb with writes = List.sort_uniq compare (k1 :: xb.writes);
                         reads = (k1, seen) :: List.remove_assoc k1 xb.reads }
           | _ -> txns.(b) <- { xb with reads = (k1, Some "aborted.1") :: xb.reads });
        let txns = Array.to_list txns in
        (* Recorded in commit order, or now and then shuffled. *)
        if Random.State.int rand 4 = 0 then
          List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rand, x)) txns))
        else txns)
      int)

let print_txns txns =
  String.concat "\n"
    (List.map
       (fun x ->
         Printf.sprintf "%s@%d r:%s w:%s" x.id x.ts
           (String.concat ","
              (List.map (fun (k, f) -> k ^ "=" ^ Option.value ~default:"-" f) x.reads))
           (String.concat "," x.writes))
       txns)

let prop_serializable_matches_reference =
  QCheck.Test.make ~count:cases ~name:"check_serializable agrees with the quadratic reference"
    (QCheck.make ~print:print_txns gen_bank_history)
    (fun txns ->
      (* Check a prefix, then the whole history in the same [History.t]: the
         second check reuses, and grows, the first one's working arrays. *)
      let h = History.create () in
      let record = List.iter (fun x ->
          History.record_txn h ~id:x.id ~commit_ts:x.ts ~reads:x.reads ~writes:x.writes)
      in
      let half = List.filteri (fun i _ -> 2 * i < List.length txns) txns in
      let rest = List.filteri (fun i _ -> 2 * i >= List.length txns) txns in
      let show (aborted, cycles) =
        String.concat "; " (List.map snd aborted)
        ^ " | "
        ^ String.concat "; " (List.map (fun (s, n) -> Printf.sprintf "%s/%d" s n) cycles)
      in
      let agree prefix =
        let expected = reference_serializable prefix in
        let got = checked_serializable (History.check_serializable h) in
        got = expected
        || QCheck.Test.fail_reportf "on %d transactions: expected %s@.got %s"
             (List.length prefix) (show expected) (show got)
      in
      record half;
      agree half
      &&
      (record rest;
       agree txns))

(* The generators must not drown the clean path in failures: at least 30%
   of their cases must be clean by the reference rules. *)
let test_clean_share () =
  let clean gen is_clean =
    let rand = Random.State.make [| 17 |] in
    List.length (List.filter is_clean (QCheck.Gen.generate ~rand ~n:cases gen))
  in
  let registers = clean gen_register_history (fun ops -> reference_check ops = []) in
  let banks = clean gen_bank_history (fun txns -> reference_serializable txns = ([], [])) in
  Alcotest.(check bool)
    (Printf.sprintf "clean register histories %d/%d" registers cases)
    true
    (10 * registers >= 3 * cases);
  Alcotest.(check bool)
    (Printf.sprintf "clean bank histories %d/%d" banks cases)
    true
    (10 * banks >= 3 * cases)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_check_matches_reference; prop_serializable_matches_reference ]
  @ [ Alcotest.test_case "generators keep 30% of cases clean" `Quick test_clean_share ]
