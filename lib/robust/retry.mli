(** The one bounded-retry / exponential-backoff combinator.

    Every retry loop in the tree goes through {!run} — Topoff's
    degraded random top-off rounds (which back off in {e work} per
    attempt, not in time) and the service client's reconnects (which
    back off in {e time}) are both instances of the same policy: a
    bounded attempt count, a geometric progression, jitter, and
    budget-aware cancellation. Each attempt entered is recorded as one
    {!Degrade.retry} under the caller's stage, so [robust.retries] in
    run reports counts retries uniformly no matter who looped. *)

type policy = {
  max_attempts : int;  (** attempts entered at most; 0 = give up at once *)
  base_scale : int;  (** work scale handed to attempt 1 *)
  scale_multiplier : float;  (** geometric work growth per attempt *)
  base_delay_ms : float;  (** sleep before attempt 2; [0.] = never sleep *)
  delay_multiplier : float;  (** geometric delay growth per attempt *)
  max_delay_ms : float;  (** delay cap *)
  jitter : float;
      (** fraction of the capped delay subtracted uniformly at random
          (0 = deterministic delays, 0.5 = sleep 50–100% of nominal) *)
}

val policy :
  ?max_attempts:int ->
  ?base_scale:int ->
  ?scale_multiplier:float ->
  ?base_delay_ms:float ->
  ?delay_multiplier:float ->
  ?max_delay_ms:float ->
  ?jitter:float ->
  unit ->
  policy
(** Defaults: 3 attempts, scale 1 doubling, no delay (doubling from the
    base when one is set, capped at 2000 ms), jitter 0.5. *)

type failure =
  | Exhausted of string  (** all attempts failed; the last reason *)
  | Budget_cut of Error.t
      (** the budget's deadline cut the loop short {e between} attempts
          (the interrupted attempt is not counted) *)

type 'a outcome = { result : ('a, failure) result; attempts : int }
(** [attempts] = attempts actually entered (0 when cut before the
    first), which is what Topoff reports as [degraded_retries]. *)

val scale_at : policy -> attempt:int -> int
(** Work scale for a 1-based attempt: [base_scale * scale_multiplier^(attempt-1)],
    rounded, at least 1. *)

val delay_ms_at : ?prng:Mutsamp_util.Prng.t -> policy -> attempt:int -> float
(** Jittered sleep before a 1-based attempt ([0.] for attempt 1 or a
    zero base delay). Without [?prng], the nominal capped delay. *)

val run :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?budget:Budget.t ->
  stage:Error.stage ->
  (attempt:int -> scale:int -> ('a, string) result) ->
  'a outcome
(** Run [f] up to [max_attempts] times. Before each attempt the budget
    deadline is polled (default: the ambient budget) — a passed
    deadline stops the loop with [Budget_cut]; then (from attempt 2)
    the jittered delay is slept ([?sleep] defaults to [Unix.sleepf];
    tests pass a recorder), one {!Degrade.retry} is recorded, and [f]
    runs with its 1-based [attempt] and geometric [scale]. The first
    [Ok] wins; [Error reason] moves to the next attempt. Jitter draws
    come from a dedicated PRNG with the fixed seed 2005, so delay schedules are replayable and independent of other PRNG
    users. *)
