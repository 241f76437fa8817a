type handle = { mutable cancelled : bool }

type 'a entry = { time : Sim_time.t; seq : int; payload : 'a; handle : handle }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable live : int;
}

let create () = { data = [||]; len = 0; next_seq = 0; live = 0 }
let size t = t.live
let backing_len t = t.len

let entry_before a b =
  match Sim_time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow t =
  let cap = Stdlib.max 16 (2 * Array.length t.data) in
  if t.len > 0 then begin
    let data = Array.make cap t.data.(0) in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

(* 4-ary layout: children of [i] sit at [4i+1 .. 4i+4]. Pops dominate the
   simulator loop, and a wider node halves the sift depth while keeping all
   four children in one or two cache lines; the (time, seq) order — and thus
   the event schedule — is identical to the binary layout's. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if entry_before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.len then begin
    let last = Stdlib.min (first + 3) (t.len - 1) in
    let smallest = ref i in
    for c = first to last do
      if entry_before t.data.(c) t.data.(!smallest) then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

(* Rebuild [data] with only the live entries and re-heapify. [entry_before]
   is a total order ((time, seq) with unique seq), so any valid heap over the
   same live set pops in the identical sequence — compaction cannot change
   the simulation schedule. The fresh array is sized to 2x the live count so
   the backing store shrinks after a cancellation storm. *)
let compact t =
  if t.live = 0 then begin
    t.data <- [||];
    t.len <- 0
  end
  else begin
    let seed = ref t.data.(0) in
    (try
       for i = 0 to t.len - 1 do
         if not t.data.(i).handle.cancelled then begin
           seed := t.data.(i);
           raise Exit
         end
       done
     with Exit -> ());
    let data = Array.make (Stdlib.max 16 (2 * t.live)) !seed in
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      let e = t.data.(i) in
      if not e.handle.cancelled then begin
        data.(!j) <- e;
        incr j
      end
    done;
    t.data <- data;
    t.len <- !j;
    (* Floyd heapify: the last internal node of the 4-ary heap is (len-2)/4. *)
    for i = (t.len - 2) / 4 downto 0 do
      sift_down t i
    done
  end

(* Below this size the O(len) rebuild costs more than lazily skipping a
   handful of dead entries on pop. *)
let compact_threshold = 64

let push t ~time payload =
  let handle = { cancelled = false } in
  let entry = { time; seq = t.next_seq; payload; handle } in
  t.next_seq <- t.next_seq + 1;
  if t.len = Array.length t.data then begin
    if t.len = 0 then t.data <- Array.make 16 entry else grow t
  end;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t (t.len - 1);
  handle

let cancel t h =
  if not h.cancelled then begin
    h.cancelled <- true;
    t.live <- t.live - 1;
    (* [2 * live < len] rather than [live < len / 2]: integer division lets
       an odd [len] slip one past the documented [len <= 2 * live] bound. *)
    if t.len >= compact_threshold && 2 * t.live < t.len then compact t
  end

let is_cancelled h = h.cancelled

let drop_top t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    sift_down t 0
  end

(* Shed cancelled entries off the top; true iff a live entry remains. After
   [normalize] returns true, [next_time]/[take] read the root directly — the
   simulator's hot loop uses this triple so popping an event costs zero
   allocations (no option, no tuple). *)
let rec normalize t =
  if t.len = 0 then false
  else if t.data.(0).handle.cancelled then begin
    drop_top t;
    normalize t
  end
  else true

let next_time t = t.data.(0).time

let take t =
  let e = t.data.(0) in
  drop_top t;
  (* Mark popped so a later [cancel] on this handle is a no-op. *)
  e.handle.cancelled <- true;
  t.live <- t.live - 1;
  e.payload

let pop t =
  if normalize t then begin
    let time = next_time t in
    Some (time, take t)
  end
  else None
