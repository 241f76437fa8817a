type key = string
type column = string

type cell = {
  value : string option;
  version : int;
  lsn : Lsn.t;
  timestamp : int;
  txn_ts : int option;
}

type coord = key * column

let compare_coord (k1, c1) (k2, c2) =
  match String.compare k1 k2 with 0 -> String.compare c1 c2 | c -> c

let equal_coord a b = compare_coord a b = 0

let tombstone ~version ~lsn ~timestamp =
  { value = None; version; lsn; timestamp; txn_ts = None }
let is_tombstone cell = cell.value = None
let newer_by_lsn a b = Lsn.(a.lsn > b.lsn)

let newer_by_timestamp a b =
  match Int.compare a.timestamp b.timestamp with
  | 0 -> Lsn.(a.lsn > b.lsn)
  | c -> c > 0

(* ------------------------------------------------------------------ *)
(* System columns: transaction bookkeeping stored as cells.

   Write intents and 2PC decision records live in columns prefixed with a
   byte no user column can start with ('\x00'), so they ride the WAL,
   catch-up and migration as cells and are exactly as durable and
   replicated as data. Intents also flow through the memtable and SSTables;
   a store keeps decisions in its own table instead. Readers filter them. *)

let system_byte = '\x00'
let is_system_col col = String.length col > 0 && col.[0] = system_byte
let intent_prefix = "\x00i:"
let system_prefix_length = String.length intent_prefix
let intent_col col = intent_prefix ^ col

let is_intent_col col =
  String.length col >= 3 && col.[0] = system_byte && col.[1] = 'i' && col.[2] = ':'

let base_of_intent_col col = String.sub col 3 (String.length col - 3)
let decision_prefix = "\x00d:"
let decision_col txn = decision_prefix ^ txn

let is_decision_col col =
  String.length col >= 3 && col.[0] = system_byte && col.[1] = 'd' && col.[2] = ':'

type intent = { i_txn : string; i_anchor : key; i_fence : Lsn.t; i_value : string option }

let sep = '\x01'

let sep_string = String.make 1 sep

(* Payloads are built on every apply on every replica, so they are
   concatenated directly rather than formatted. *)
let encode_intent { i_txn; i_anchor; i_fence; i_value } =
  String.concat sep_string
    [
      i_txn;
      i_anchor;
      Lsn.to_string i_fence;
      (match i_value with Some v -> "v" ^ v | None -> "d");
    ]

(* Characters in [string_of_int n]. *)
let decimal_length n =
  let rec go n acc = if n > -10 && n < 10 then acc else go (n / 10) (acc + 1) in
  go n (if n < 0 then 2 else 1)

let lsn_length (l : Lsn.t) = decimal_length l.epoch + 1 + decimal_length l.seq

let intent_length { i_txn; i_anchor; i_fence; i_value } =
  String.length i_txn + String.length i_anchor + lsn_length i_fence + 3
  + match i_value with Some v -> 1 + String.length v | None -> 1

let decode_intent s =
  (* The proposed value is the last field and may itself contain the
     separator, so split only the first three fields. *)
  match String.index_opt s sep with
  | None -> None
  | Some a -> (
    match String.index_from_opt s (a + 1) sep with
    | None -> None
    | Some b -> (
      match String.index_from_opt s (b + 1) sep with
      | None -> None
      | Some c -> (
        match Lsn.of_string (String.sub s (b + 1) (c - b - 1)) with
        | None -> None
        | Some fence ->
          let tail = String.sub s (c + 1) (String.length s - c - 1) in
          let value =
            if String.length tail > 0 && tail.[0] = 'v' then
              Some (String.sub tail 1 (String.length tail - 1))
            else None
          in
          Some
            {
              i_txn = String.sub s 0 a;
              i_anchor = String.sub s (a + 1) (b - a - 1);
              i_fence = fence;
              i_value = value;
            })))

let encode_decision ~commit ~ts =
  String.concat sep_string [ (if commit then "c" else "a"); string_of_int ts ]

let decision_length ~ts = 2 + decimal_length ts

let decode_decision s =
  match String.split_on_char sep s with
  | [ d; ts ] when d = "c" || d = "a" -> (
    match int_of_string_opt ts with Some ts -> Some (d = "c", ts) | None -> None)
  | _ -> None

let pp_cell ppf c =
  Format.fprintf ppf "{%s v%d @%a}"
    (match c.value with Some v -> String.escaped (if String.length v > 16 then String.sub v 0 16 ^ "..." else v) | None -> "<tombstone>")
    c.version Lsn.pp c.lsn
