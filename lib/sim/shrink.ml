type stats = {
  replays : int;
  initial_injections : int;
  final_injections : int;
}

(* [complement schedule ~start ~len] is the schedule with the chunk
   [start, start+len) removed. *)
let complement schedule ~start ~len =
  List.filteri (fun i _ -> i < start || i >= start + len) schedule

let ddmin ?(max_replays = 2000) ~replay schedule =
  let replays = ref 0 in
  let try_schedule candidate =
    incr replays;
    replay candidate
  in
  let budget () = !replays < max_replays in
  (* Zeller-Hildebrandt ddmin, removal-only: try dropping each of [n]
     chunks; on success restart at the smaller schedule with coarse
     granularity, otherwise refine until chunks are single injections. *)
  let rec minimize schedule n =
    let len = List.length schedule in
    if len <= 1 || n > len || not (budget ()) then schedule
    else begin
      let chunk = Stdlib.max 1 (len / n) in
      (* Walk chunks back to front: chaos schedules front-load the setup
         (engage before crash), and tails — injections after the violation
         already happened — are the easiest wins. *)
      let starts =
        List.rev (List.init n (fun i -> i * chunk))
        |> List.filter (fun s -> s < len)
      in
      let rec attempt = function
        | [] ->
          if chunk <= 1 then schedule
          else minimize schedule (Stdlib.min len (2 * n))
        | start :: rest ->
          if not (budget ()) then schedule
          else begin
            let this = if start + chunk > len then len - start else chunk in
            let candidate = complement schedule ~start ~len:this in
            if candidate <> [] && try_schedule candidate then
              (* Keep the granularity coarse after progress: the schedule
                 shrank, so the same chunk count now means bigger bites. *)
              minimize candidate (Stdlib.max 2 (n - 1))
            else attempt rest
          end
      in
      attempt starts
    end
  in
  (* The caller vouches that [schedule] fails; ddmin assumes it. A final
     greedy pass retries every single-injection removal once more — ddmin
     can stop at a local minimum where only first-removals were tried at
     the finest granularity. *)
  let rec greedy schedule =
    let len = List.length schedule in
    let rec try_each i =
      if i >= len || not (budget ()) then None
      else
        let candidate = complement schedule ~start:(len - 1 - i) ~len:1 in
        if candidate <> [] && try_schedule candidate then Some candidate
        else try_each (i + 1)
    in
    if len <= 1 then schedule
    else match try_each 0 with Some smaller -> greedy smaller | None -> schedule
  in
  let initial = List.length schedule in
  let minimal = greedy (minimize schedule 2) in
  ( minimal,
    {
      replays = !replays;
      initial_injections = initial;
      final_injections = List.length minimal;
    } )
