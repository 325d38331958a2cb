module Prng = Mutsamp_util.Prng

type policy = {
  max_attempts : int;
  base_scale : int;
  scale_multiplier : float;
  base_delay_ms : float;
  delay_multiplier : float;
  max_delay_ms : float;
  jitter : float;
}

let policy ?(max_attempts = 3) ?(base_scale = 1) ?(scale_multiplier = 2.0)
    ?(base_delay_ms = 0.) ?(delay_multiplier = 2.0) ?(max_delay_ms = 2000.)
    ?(jitter = 0.5) () =
  {
    max_attempts;
    base_scale;
    scale_multiplier;
    base_delay_ms;
    delay_multiplier;
    max_delay_ms;
    jitter;
  }

type failure = Exhausted of string | Budget_cut of Error.t

type 'a outcome = { result : ('a, failure) result; attempts : int }

let scale_at policy ~attempt =
  max 1
    (int_of_float
       (Float.round
          (float_of_int policy.base_scale
          *. (policy.scale_multiplier ** float_of_int (attempt - 1)))))

let delay_ms_at ?prng policy ~attempt =
  if attempt <= 1 || policy.base_delay_ms <= 0. then 0.
  else begin
    (* Attempt 2 is the first delayed one: it waits the base delay,
       then each further attempt multiplies, capped at the maximum. *)
    let raw =
      policy.base_delay_ms
      *. (policy.delay_multiplier ** float_of_int (attempt - 2))
    in
    let capped = Float.min raw policy.max_delay_ms in
    match prng with
    | None -> capped
    | Some p ->
      if policy.jitter <= 0. then capped
      else capped -. (Prng.float p *. policy.jitter *. capped)
  end

let default_policy = policy ()

let jitter_seed = 2005

let run ?(policy = default_policy) ?(sleep = Unix.sleepf) ?budget ~stage f =
  let budget = match budget with Some b -> b | None -> Budget.ambient () in
  let prng = lazy (Prng.create jitter_seed) in
  let rec go attempt last_reason =
    if attempt > policy.max_attempts then
      { result = Error (Exhausted last_reason); attempts = policy.max_attempts }
    else
      match Budget.check_deadline budget ~stage with
      | Error e -> { result = Error (Budget_cut e); attempts = attempt - 1 }
      | Ok () ->
        if attempt > 1 then begin
          let d = delay_ms_at ~prng:(Lazy.force prng) policy ~attempt in
          if d > 0. then sleep (d /. 1000.)
        end;
        Degrade.retry ~stage;
        let scale = scale_at policy ~attempt in
        (match f ~attempt ~scale with
         | Ok v -> { result = Ok v; attempts = attempt }
         | Error reason -> go (attempt + 1) reason)
  in
  go 1 "no attempts made"
