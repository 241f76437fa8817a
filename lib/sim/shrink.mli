(** Delta-debugging shrinker for fault schedules.

    A failing 20-seed chaos run hands the developer a haystack: dozens of
    injections, most irrelevant. [ddmin] reduces a failing
    {!Failure.schedule} to a locally minimal one — removing any single
    remaining injection no longer reproduces the violation — by re-running
    the deterministic simulation against candidate sub-schedules
    (Zeller-Hildebrandt ddmin, removal-only, followed by a greedy
    single-removal sweep).

    The shrinker is oblivious to what "fails" means: [replay] builds a
    fresh simulation, applies the candidate with {!Failure.apply}, and
    returns whether the original invariant violation still occurs. Because
    replays are seed-deterministic, the oracle is exact — no flaky
    shrinking. *)

type stats = {
  replays : int;  (** candidate schedules executed *)
  initial_injections : int;
  final_injections : int;
}

val ddmin :
  ?max_replays:int ->
  replay:(Failure.schedule -> bool) ->
  Failure.schedule ->
  Failure.schedule * stats
(** [ddmin ~replay schedule] assumes [replay schedule = true] (the caller
    has already seen it fail) and returns a minimal failing sub-schedule.
    [max_replays] (default 2000) bounds total re-executions; on exhaustion
    the best schedule found so far is returned. Order within the schedule
    is preserved — only removals are attempted — and the result is never
    empty: a violation that needs no injection at all is not a fault-
    schedule bug, so the floor is one injection. *)
