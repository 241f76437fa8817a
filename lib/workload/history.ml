type write = {
  w_seq : int;
  w_invoked : Sim.Sim_time.t;
  w_completed : Sim.Sim_time.t;
  w_acked : bool;
}

type read = {
  r_observed : int option;
  r_invoked : Sim.Sim_time.t;
  r_completed : Sim.Sim_time.t;
}

type txn = {
  x_id : string;
  x_commit_ts : int;
  x_reads : (Storage.Row.key * string option) list;
  x_writes : Storage.Row.key list;
}

(* Working arrays of the checkers, kept across calls so a repeated check
   allocates no large blocks: each only grows, to the largest key or graph
   checked so far, and every call overwrites the prefix it uses. *)
type work = {
  mutable by_inv : read array;  (** a key's reads by invocation *)
  mutable by_comp : read array;  (** a key's reads by completion *)
  mutable w_by_seq : write array;  (** a key's writes by seq *)
  mutable w_by_comp : write array;  (** a key's writes by completion *)
  mutable xs : txn array;  (** the transactions by dense index: record order *)
  mutable ts : int array;  (** commit timestamp of each transaction *)
  mutable ids : int array;
      (** open-addressing table of transaction ids: a slot holds the index
          of the transaction with that id, or [-1] *)
  mutable roff : int array;  (** txn [i]'s reads are [roff.(i) .. roff.(i+1) - 1] *)
  mutable woff : int array;  (** txn [i]'s write slots are [woff.(i) .. woff.(i+1) - 1] *)
  mutable slot_key : int array;  (** interned key of each write slot *)
  mutable kstart : int array;  (** key [k]'s writers are [kw.(kstart.(k)) ..] *)
  mutable kw : int array;  (** writers of each key, by (commit_ts, id) *)
  mutable pos : int array;  (** write slot -> its index in [kw] *)
  mutable rkey : int array;  (** interned key of each read, in record order *)
  mutable rfrom : int array;  (** writer of each read's version: a txn index, [initial] or [uncommitted] *)
  mutable off : int array;  (** CSR offsets of the dependency graph *)
  mutable adj : int array;  (** CSR targets *)
  mutable indeg : int array;
  mutable queue : int array;
}

type t = {
  writes : (Storage.Row.key, write list) Hashtbl.t;
  reads : (Storage.Row.key, read list) Hashtbl.t;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable txns : txn list;  (** newest first *)
  mutable n_txns : int;
  key_ix : (Storage.Row.key, int) Hashtbl.t;  (** keys of transactions, interned *)
  work : work;
}

type violation = { key : Storage.Row.key; explanation : string }

let create () =
  {
    writes = Hashtbl.create 16;
    reads = Hashtbl.create 16;
    n_reads = 0;
    n_writes = 0;
    txns = [];
    n_txns = 0;
    key_ix = Hashtbl.create 16;
    work =
      {
        by_inv = [||];
        by_comp = [||];
        w_by_seq = [||];
        w_by_comp = [||];
        xs = [||];
        ts = [||];
        ids = [||];
        roff = [||];
        woff = [||];
        slot_key = [||];
        kstart = [||];
        kw = [||];
        pos = [||];
        rkey = [||];
        rfrom = [||];
        off = [||];
        adj = [||];
        indeg = [||];
        queue = [||];
      };
  }

let push table key v =
  Hashtbl.replace table key (v :: Option.value ~default:[] (Hashtbl.find_opt table key))

let record_write t ~key ~seq ~invoked ~completed ~acked =
  t.n_writes <- t.n_writes + 1;
  push t.writes key { w_seq = seq; w_invoked = invoked; w_completed = completed; w_acked = acked }

let record_read t ~key ~observed ~invoked ~completed =
  t.n_reads <- t.n_reads + 1;
  push t.reads key { r_observed = observed; r_invoked = invoked; r_completed = completed }

(* A transaction's dense index is its position in record order. *)
let record_txn t ~id ~commit_ts ~reads ~writes =
  t.txns <- { x_id = id; x_commit_ts = commit_ts; x_reads = reads; x_writes = writes } :: t.txns;
  t.n_txns <- t.n_txns + 1

let reads t = t.n_reads
let writes t = t.n_writes
let txns t = t.n_txns

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.key v.explanation

(* [room a n x] is [a] if it holds [n] elements, else a larger array
   filled with [x]. *)
let room a n x = if Array.length a >= n then a else Array.make (Stdlib.max n (2 * Array.length a)) x

(* In-place heapsort of [a.(lo) .. a.(hi - 1)]. *)
let heapsort a lo hi cmp =
  let swap i j =
    let x = a.(lo + i) in
    a.(lo + i) <- a.(lo + j);
    a.(lo + j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && cmp a.(lo + l + 1) a.(lo + l) > 0 then l + 1 else l in
      if cmp a.(lo + c) a.(lo + i) > 0 then begin
        swap i c;
        sift c len
      end
    end
  in
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* Sort [a.(lo) .. a.(hi - 1)] in place. Records arrive nearly in order, so
   insertion sort, linear on them, goes first; past [8 * n] moves it hands
   over to the heapsort, which bounds the whole at O(n log n). *)
let sort_range a lo hi cmp =
  let budget = ref (8 * (hi - lo)) and i = ref (lo + 1) in
  while !i < hi && !budget > 0 do
    let x = a.(!i) and j = ref (!i - 1) in
    while !j >= lo && !budget > 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j;
      decr budget
    done;
    a.(!j + 1) <- x;
    incr i
  done;
  if !budget <= 0 then heapsort a lo hi cmp

(* ------------------------------------------------------------------ *)
(* Linearizability of single-writer registers                          *)

let witness_cap = 8

(* Violation classes, each counted once per offending read. *)
let phantom = 0
let future = 1
let travel = 2
let lost_key = 3
let stale = 4
let unseen_ack = 5

let class_summary = function
  | 0 -> "reads observed a seq that was never written"
  | 1 -> "reads completed before the write they observed was invoked"
  | 2 -> "reads travel back in time"
  | 3 -> "later reads lost the key after a seq was observed"
  | 4 -> "reads after an ack observed an older seq"
  | _ -> "reads after an ack observed nothing"

(* No seq observed or acknowledged yet. *)
let nothing = min_int

let by_invoked a b = Sim.Sim_time.compare a.r_invoked b.r_invoked
let by_completed a b = Sim.Sim_time.compare a.r_completed b.r_completed
let write_by_completed a b = Sim.Sim_time.compare a.w_completed b.w_completed
let by_seq a b = Int.compare a.w_seq b.w_seq

let observed_seq r = match r.r_observed with Some s -> s | None -> nothing

(* Stands for "no write of the observed seq", so that matching a read to
   its write allocates nothing. *)
let absent =
  { w_seq = nothing; w_invoked = Sim.Sim_time.zero; w_completed = Sim.Sim_time.zero; w_acked = false }

(* What [List.find_opt] would pick, the newest write of [seq], or [absent]. *)
let rec find_write seq = function
  | [] -> absent
  | w :: ws -> if w.w_seq = seq then w else find_write seq ws

(* The newest seq acknowledged by a write of [writes] that completed before
   [until]. *)
let rec acked_before until m = function
  | [] -> m
  | w :: l ->
    acked_before until
      (if w.w_acked && Sim.Sim_time.(w.w_completed < until) then Int.max m w.w_seq else m)
      l

(* In the judges, [note cls text] counts a violating read of class [cls];
   [text] renders its witness and is forced only for the first few. A read
   that breaks two rules is noted twice, once per class.

   Value rules: [w] is the write of the seq [r] observed, or [absent]. *)
let judge_value note r w =
  match r.r_observed with
  | None -> ()
  | Some s ->
    if w == absent then
      note phantom (fun () -> Printf.sprintf "read observed seq %d, which was never written" s)
    else if Sim.Sim_time.(r.r_completed < w.w_invoked) then
      note future (fun () ->
          Printf.sprintf "read of seq %d completed before its write was invoked" s)

(* Order rules: [prior] is the newest seq observed by a read that completed
   before [r] was invoked, [acked] the newest seq acknowledged before it. *)
let judge_order note r ~prior ~acked =
  match r.r_observed with
  | Some s ->
    if s < prior then
      note travel (fun () ->
          Printf.sprintf "reads travel back in time: saw %d then later read saw %d" prior s);
    if s < acked then
      note stale (fun () -> Printf.sprintf "read after ack of seq %d observed only seq %d" acked s)
  | None ->
    if prior <> nothing then
      note lost_key (fun () ->
          Printf.sprintf "later read lost the key after seq %d was observed" prior);
    if acked <> nothing then
      note unseen_ack (fun () -> Printf.sprintf "read after ack of seq %d observed nothing" acked)

(* The [n] elements of [l] into [a.(0) .. a.(n - 1)], oldest record first,
   then ordered by [cmp]. *)
let load a n l cmp =
  List.iteri (fun j x -> a.(n - 1 - j) <- x) l;
  sort_range a 0 n cmp

(* The write of seq [seq] among [ws.(0) .. ws.(n - 1)], ascending by seq,
   or [absent]. Seqs are unique per key, so it is the one [List.find_opt]
   finds. *)
let search ws n seq =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ws.(mid).w_seq < seq then lo := mid + 1 else hi := mid
  done;
  if !lo < n && ws.(!lo).w_seq = seq then ws.(!lo) else absent

(* The verdict on one key. A single read, with no other read to order it
   against, walks the writes, which costs less than sorting them. More
   reads are sorted by invocation and swept against the reads and the
   writes by completion, keeping running maxima of the seqs observed and
   acknowledged. *)
let check_key s note reads writes =
  match reads with
  | [] -> ()
  | [ r ] ->
    judge_value note r (match r.r_observed with None -> absent | Some q -> find_write q writes);
    judge_order note r ~prior:nothing ~acked:(acked_before r.r_invoked nothing writes)
  | r0 :: _ ->
    let n_reads = List.length reads and n_writes = List.length writes in
    s.by_inv <- room s.by_inv n_reads r0;
    s.by_comp <- room s.by_comp n_reads r0;
    load s.by_inv n_reads reads by_invoked;
    load s.by_comp n_reads reads by_completed;
    (match writes with
    | [] -> ()
    | w0 :: _ ->
      s.w_by_seq <- room s.w_by_seq n_writes w0;
      s.w_by_comp <- room s.w_by_comp n_writes w0;
      load s.w_by_seq n_writes writes by_seq;
      load s.w_by_comp n_writes writes write_by_completed);
    let c = ref 0 and prior = ref nothing and w = ref 0 and acked = ref nothing in
    for i = 0 to n_reads - 1 do
      let r = s.by_inv.(i) in
      judge_value note r
        (match r.r_observed with None -> absent | Some q -> search s.w_by_seq n_writes q);
      while !c < n_reads && Sim.Sim_time.(s.by_comp.(!c).r_completed < r.r_invoked) do
        prior := Int.max !prior (observed_seq s.by_comp.(!c));
        incr c
      done;
      while !w < n_writes && Sim.Sim_time.(s.w_by_comp.(!w).w_completed < r.r_invoked) do
        let x = s.w_by_comp.(!w) in
        if x.w_acked then acked := Int.max !acked x.w_seq;
        incr w
      done;
      judge_order note r ~prior:!prior ~acked:!acked
    done

let check t =
  let violations = ref [] in
  let counts = Array.make 6 0 and current = ref "" and shown = ref 0 and dropped = ref false in
  let note cls text =
    counts.(cls) <- counts.(cls) + 1;
    if !shown < witness_cap then begin
      incr shown;
      violations := { key = !current; explanation = text () } :: !violations
    end
    else dropped := true
  in
  Hashtbl.iter
    (fun key reads ->
      current := key;
      shown := 0;
      dropped := false;
      check_key t.work note reads
        (match Hashtbl.find t.writes key with ws -> ws | exception Not_found -> []);
      if !dropped then
        Array.iteri
          (fun cls n ->
            if n > 0 then
              violations :=
                { key; explanation = Printf.sprintf "%d %s" n (class_summary cls) }
                :: !violations)
          counts;
      if !shown > 0 then Array.fill counts 0 (Array.length counts) 0)
    t.reads;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Serializability of committed transactions                           *)

(* The direct serialization graph over committed transactions, one node per
   dense transaction index:
   - wr: T1 -> T2 when T2 read a version T1 wrote (values encode their
     writer's transaction id);
   - ww: per key, committed writers ordered by (commit_ts, id) — each writer
     points to its successor;
   - rw: T1 read key k from W (or the initial state); the writer installed
     immediately after W in k's ww order overwrote what T1 saw, so T1 points
     to it (anti-dependency).
   The history is serializable iff the graph is acyclic, which Kahn's
   algorithm decides in O(V + E). Only a cyclic graph pays for Tarjan's
   strongly connected components and, per component, a BFS for the
   shortest cycle through its least id — the minimal witness. A read
   observing a transaction id never committed is the read-from-aborted
   anomaly and is reported directly. *)

(* Edge labels: [3 * key + kind]. *)
let ww = 0
let wr = 1
let rw = 2
let kind_name = function 0 -> "ww" | 1 -> "wr" | _ -> "rw"

(* [rfrom] of a read of the initial state, and of a version whose writer
   never committed. *)
let initial = -1
let uncommitted = -2

let intern t key =
  match Hashtbl.find_opt t.key_ix key with
  | Some k -> k
  | None ->
    let k = Hashtbl.length t.key_ix in
    Hashtbl.add t.key_ix key k;
    k

(* Resolve every transaction's writes and reads to ints, then lay out each
   key's writers in ww order. [aborted] sees each read of a transaction
   that never committed. Returns the number of interned keys. *)
let resolve t ~aborted =
  let s = t.work and n = t.n_txns in
  (match t.txns with x :: _ -> s.xs <- room s.xs n x | [] -> ());
  s.ts <- room s.ts n 0;
  s.woff <- room s.woff (n + 1) 0;
  s.roff <- room s.roff (n + 1) 0;
  (* Ids by open addressing, at most half full. *)
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  s.ids <- room s.ids !cap 0;
  Array.fill s.ids 0 !cap (-1);
  let rec slot id h =
    let i = s.ids.(h) in
    if i < 0 || String.equal s.xs.(i).x_id id then h else slot id ((h + 1) land mask)
  in
  (* One pass over the records, newest first; [woff]/[roff] hold counts for
     now. A repeated id names its newest transaction. *)
  List.iteri
    (fun j x ->
      let i = n - 1 - j in
      s.xs.(i) <- x;
      s.ts.(i) <- x.x_commit_ts;
      let h = slot x.x_id (Hashtbl.hash x.x_id land mask) in
      if s.ids.(h) < 0 then s.ids.(h) <- i;
      s.woff.(i + 1) <- List.length x.x_writes;
      s.roff.(i + 1) <- List.length x.x_reads)
    t.txns;
  s.woff.(0) <- 0;
  s.roff.(0) <- 0;
  for i = 1 to n do
    s.woff.(i) <- s.woff.(i) + s.woff.(i - 1);
    s.roff.(i) <- s.roff.(i) + s.roff.(i - 1)
  done;
  s.slot_key <- room s.slot_key s.woff.(n) 0;
  s.kw <- room s.kw s.woff.(n) 0;
  s.rkey <- room s.rkey s.roff.(n) 0;
  s.rfrom <- room s.rfrom s.roff.(n) 0;
  let next = ref 0 in
  for i = 0 to n - 1 do
    let x = s.xs.(i) in
    let first = !next in
    List.iter
      (fun key ->
        let k = intern t key in
        (* A key written twice by one transaction is one slot. *)
        let dup = ref false in
        for j = first to !next - 1 do
          if s.slot_key.(j) = k then dup := true
        done;
        if not !dup then begin
          s.slot_key.(!next) <- k;
          incr next
        end)
      x.x_writes;
    s.woff.(i) <- first;
    List.iteri
      (fun j (key, from) ->
        let r = s.roff.(i) + j in
        s.rkey.(r) <- intern t key;
        s.rfrom.(r) <-
          (match from with
          | None -> initial
          | Some w ->
            let wi = s.ids.(slot w (Hashtbl.hash w land mask)) in
            if wi < 0 then begin
              aborted x key w;
              uncommitted
            end
            else wi))
      x.x_reads
  done;
  s.woff.(n) <- !next;
  let nk = Hashtbl.length t.key_ix in
  s.kstart <- room s.kstart (nk + 1) 0;
  s.pos <- room s.pos (Stdlib.max !next nk) 0;
  Array.fill s.kstart 0 (nk + 1) 0;
  for j = 0 to !next - 1 do
    s.kstart.(s.slot_key.(j) + 1) <- s.kstart.(s.slot_key.(j) + 1) + 1
  done;
  for k = 1 to nk do
    s.kstart.(k) <- s.kstart.(k) + s.kstart.(k - 1)
  done;
  (* Bucket writers by key in record order ([pos] is the cursor for now),
     then order each bucket by (commit_ts, id). *)
  Array.blit s.kstart 0 s.pos 0 nk;
  for i = 0 to n - 1 do
    for j = s.woff.(i) to s.woff.(i + 1) - 1 do
      let k = s.slot_key.(j) in
      s.kw.(s.pos.(k)) <- i;
      s.pos.(k) <- s.pos.(k) + 1
    done
  done;
  let cmp a b =
    match Int.compare s.ts.(a) s.ts.(b) with
    | 0 -> String.compare s.xs.(a).x_id s.xs.(b).x_id
    | c -> c
  in
  for k = 0 to nk - 1 do
    sort_range s.kw s.kstart.(k) s.kstart.(k + 1) cmp
  done;
  for k = 0 to nk - 1 do
    for p = s.kstart.(k) to s.kstart.(k + 1) - 1 do
      let i = s.kw.(p) in
      for j = s.woff.(i) to s.woff.(i + 1) - 1 do
        if s.slot_key.(j) = k then s.pos.(j) <- p
      done
    done
  done;
  nk

(* Every edge [u -> v] of the graph with its label, in a fixed order. *)
let iter_edges t ~nk f =
  let s = t.work in
  let edge u v ~kind ~key = if u <> v then f u v ((3 * key) + kind) in
  for k = 0 to nk - 1 do
    for p = s.kstart.(k) to s.kstart.(k + 1) - 2 do
      edge s.kw.(p) s.kw.(p + 1) ~kind:ww ~key:k
    done
  done;
  for i = 0 to t.n_txns - 1 do
    for r = s.roff.(i) to s.roff.(i + 1) - 1 do
      let k = s.rkey.(r) and from = s.rfrom.(r) in
      if from >= 0 then edge from i ~kind:wr ~key:k;
      (* The writer installed right after the version this read saw. *)
      let next =
        if from = initial then s.kstart.(k)
        else if from = uncommitted then -1
        else begin
          let p = ref (-1) in
          for j = s.woff.(from) to s.woff.(from + 1) - 1 do
            if s.slot_key.(j) = k then p := s.pos.(j) + 1
          done;
          !p
        end
      in
      if next >= 0 && next < s.kstart.(k + 1) then edge i s.kw.(next) ~kind:rw ~key:k
    done
  done

(* CSR adjacency in [off]/[adj], and the labels in [lab] when given. *)
let build_graph ?lab t ~nk =
  let s = t.work and n = t.n_txns in
  s.off <- room s.off (n + 1) 0;
  s.indeg <- room s.indeg n 0;
  Array.fill s.off 0 (n + 1) 0;
  iter_edges t ~nk (fun u _ _ -> s.off.(u + 1) <- s.off.(u + 1) + 1);
  for u = 1 to n do
    s.off.(u) <- s.off.(u) + s.off.(u - 1)
  done;
  s.adj <- room s.adj s.off.(n) 0;
  (* [indeg] is each node's fill cursor for now. *)
  Array.blit s.off 0 s.indeg 0 n;
  iter_edges t ~nk (fun u v l ->
      let e = s.indeg.(u) in
      s.adj.(e) <- v;
      Option.iter (fun lab -> lab.(e) <- l) lab;
      s.indeg.(u) <- e + 1)

(* Kahn's algorithm: does every node leave the graph? *)
let acyclic t =
  let s = t.work and n = t.n_txns in
  s.queue <- room s.queue n 0;
  Array.fill s.indeg 0 n 0;
  for e = 0 to s.off.(n) - 1 do
    s.indeg.(s.adj.(e)) <- s.indeg.(s.adj.(e)) + 1
  done;
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if s.indeg.(v) = 0 then begin
      s.queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = s.queue.(!head) in
    incr head;
    for e = s.off.(u) to s.off.(u + 1) - 1 do
      let v = s.adj.(e) in
      s.indeg.(v) <- s.indeg.(v) - 1;
      if s.indeg.(v) = 0 then begin
        s.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail = n

(* The cycle witnesses: one shortest cycle per non-trivial strongly
   connected component, through the component's least transaction id. *)
let cycles t ~nk bad =
  let s = t.work and n = t.n_txns in
  let lab = Array.make s.off.(n) 0 in
  build_graph t ~nk ~lab;
  let off = s.off and adj = s.adj in
  let keys = Array.make nk "" in
  Hashtbl.iter (fun key k -> keys.(k) <- key) t.key_ix;
  let id v = s.xs.(v).x_id in
  (* Tarjan; [comp.(v)] names v's component once it is closed. *)
  let index = Array.make n (-1) and low = Array.make n 0 in
  let comp = Array.make n (-1) and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec connect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    for e = off.(v) to off.(v + 1) - 1 do
      let w = adj.(e) in
      if index.(w) < 0 then begin
        connect w;
        low.(v) <- Stdlib.min low.(v) low.(w)
      end
      else if on_stack.(w) then low.(v) <- Stdlib.min low.(v) index.(w)
    done;
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- v;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      match pop [] with _ :: _ :: _ as scc -> sccs := scc :: !sccs | _ -> ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done;
  (* BFS from the least id, inside its component, back to itself. *)
  let parent = Array.make n (-1) and via = Array.make n 0 in
  List.iter
    (fun scc ->
      let start =
        List.fold_left
          (fun a b -> if String.compare (id b) (id a) < 0 then b else a)
          (List.hd scc) scc
      in
      let queue = Queue.create () in
      Queue.push start queue;
      let found = ref None in
      while !found = None && not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        for e = off.(u) to off.(u + 1) - 1 do
          let v = adj.(e) in
          if comp.(v) = comp.(start) && !found = None then
            if v = start then found := Some (u, lab.(e))
            else if parent.(v) < 0 then begin
              parent.(v) <- u;
              via.(v) <- lab.(e);
              Queue.push v queue
            end
        done
      done;
      match !found with
      | None -> ()
      | Some (last, closing) ->
        let rec walk v acc =
          if v = start then acc else walk parent.(v) ((via.(v), v) :: acc)
        in
        let path = walk last [] @ [ (closing, start) ] in
        let buf = Buffer.create 64 in
        Buffer.add_string buf (id start);
        List.iter
          (fun (l, v) ->
            Buffer.add_string buf
              (Printf.sprintf " -%s[%s]-> %s" (kind_name (l mod 3)) keys.(l / 3) (id v)))
          path;
        let first, _ = List.hd path in
        bad keys.(first / 3) ("dependency cycle: " ^ Buffer.contents buf))
    !sccs

let check_serializable t =
  let violations = ref [] in
  let bad key explanation = violations := { key; explanation } :: !violations in
  let nk =
    resolve t ~aborted:(fun x key w ->
        bad key (Printf.sprintf "txn %s read %s, written by %s which never committed" x.x_id key w))
  in
  build_graph t ~nk;
  if not (acyclic t) then cycles t ~nk bad;
  List.rev !violations

(* Canonical digest of everything recorded. Entries are folded in sorted
   order (never Hashtbl iteration order), so two histories built from the
   same sequence of events — in any insertion order — digest identically.
   This is the oracle for "same seed + same schedule => same run". *)
let fingerprint t =
  let buf = Buffer.create 4096 in
  let keys_of table = Hashtbl.fold (fun k _ acc -> k :: acc) table [] in
  let all_keys =
    List.sort_uniq String.compare (keys_of t.writes @ keys_of t.reads)
  in
  let us ts = Sim.Sim_time.time_to_us ts in
  List.iter
    (fun key ->
      Buffer.add_string buf key;
      Buffer.add_char buf '\n';
      let ws =
        List.sort
          (fun a b ->
            match compare (us a.w_invoked) (us b.w_invoked) with
            | 0 -> compare (a.w_seq, us a.w_completed, a.w_acked)
                     (b.w_seq, us b.w_completed, b.w_acked)
            | c -> c)
          (Option.value ~default:[] (Hashtbl.find_opt t.writes key))
      in
      List.iter
        (fun w ->
          Buffer.add_string buf
            (Printf.sprintf "w %d %d %d %b\n" w.w_seq (us w.w_invoked)
               (us w.w_completed) w.w_acked))
        ws;
      let rs =
        List.sort
          (fun a b ->
            match compare (us a.r_invoked) (us b.r_invoked) with
            | 0 -> compare (a.r_observed, us a.r_completed)
                     (b.r_observed, us b.r_completed)
            | c -> c)
          (Option.value ~default:[] (Hashtbl.find_opt t.reads key))
      in
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "r %s %d %d\n"
               (match r.r_observed with None -> "-" | Some s -> string_of_int s)
               (us r.r_invoked) (us r.r_completed)))
        rs)
    all_keys;
  (* Transactions fold in only when present, so digests of non-transactional
     histories are unchanged from before transactions existed. *)
  if t.txns <> [] then begin
    let xs =
      List.sort (fun a b -> compare (a.x_commit_ts, a.x_id) (b.x_commit_ts, b.x_id))
        t.txns
    in
    List.iter
      (fun x ->
        Buffer.add_string buf (Printf.sprintf "t %s %d" x.x_id x.x_commit_ts);
        List.iter
          (fun (key, from) ->
            Buffer.add_string buf
              (Printf.sprintf " r:%s=%s" key (Option.value ~default:"-" from)))
          x.x_reads;
        List.iter (fun key -> Buffer.add_string buf (Printf.sprintf " w:%s" key)) x.x_writes;
        Buffer.add_char buf '\n')
      xs
  end;
  Digest.to_hex (Digest.string (Buffer.contents buf))
