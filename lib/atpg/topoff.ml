module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Prng = Mutsamp_util.Prng
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Degrade = Mutsamp_robust.Degrade
module Retry = Mutsamp_robust.Retry
module Ctx = Mutsamp_exec.Ctx

type generator = Use_podem | Use_sat

(* Observability series (no-ops unless metrics collection is on). *)
let c_runs = Metrics.counter "topoff.runs"
let c_atpg_calls = Metrics.counter "topoff.atpg_calls"
let c_atpg_patterns = Metrics.counter "topoff.atpg_patterns"
let c_random_patterns = Metrics.counter "topoff.random_patterns"
let c_untestable = Metrics.counter "topoff.untestable"
let c_aborted = Metrics.counter "topoff.aborted"
let c_degraded = Metrics.counter "topoff.degraded_runs"

type report = {
  total_faults : int;
  seed_detected : int;
  random_detected : int;
  atpg_detected : int;
  untestable : int;
  aborted : int;
  final_coverage_percent : float;
  seed_patterns : int;
  random_patterns : int;
  atpg_calls : int;
  atpg_patterns : int;
  degraded : bool;
  degraded_retries : int;
  degraded_detected : int;
  test_set : Mutsamp_fault.Pattern.t array;
}

(* Which of [faults] does [patterns] detect? Returns the undetected
   remainder. *)
let surviving ~ctx nl faults patterns =
  if patterns = [||] then faults
  else begin
    let r = Fsim.run ~ctx nl ~faults ~sequence:patterns in
    Array.to_list r.Fsim.detections
    |> List.filter_map (fun (d : Fsim.detection) ->
           match d.Fsim.detected_at with None -> Some d.Fsim.fault | Some _ -> None)
  end

(* Random batches in a row without a new detection that end phase 2. *)
let random_stall = 4

(* Backtracks each PODEM call of phase 3 may take. *)
let backtrack_limit = 2000

(* Random fallback rounds after a budget cut of phase 3. *)
let fallback_rounds = 3

let run ?(generator = Use_podem) ?(random_budget = 4096) ?(seed = 1)
    ?(ctx = Ctx.default) nl ~faults ~seed_patterns =
  if Netlist.num_dffs nl > 0 then
    invalid_arg "Topoff.run: sequential netlist (apply Scan.full_scan first)";
  let budget = Ctx.budget ctx in
  let expired () =
    match Budget.check_deadline budget ~stage:Rerror.Topoff with
    | Ok () -> false
    | Error _ -> true
  in
  Trace.with_span "topoff"
    ~attrs:[ ("generator", match generator with Use_podem -> "podem" | Use_sat -> "sat") ]
  @@ fun () ->
  Metrics.incr c_runs;
  let total_faults = List.length faults in
  (* Newest pattern first; reversed once into the result. *)
  let test_set_rev = ref (List.rev (Array.to_list seed_patterns)) in
  (* Phase 1: seed patterns. *)
  let after_seed = surviving ~ctx nl faults seed_patterns in
  let seed_detected = total_faults - List.length after_seed in
  (* Phase 2: pseudo-random batches with stall detection. *)
  let prng = Prng.create seed in
  let bits = Array.length nl.Netlist.input_nets in
  let random_patterns = ref 0 in
  (* One word of pseudo-random patterns against [pending], kept in the
     test set only if it detects a fault: the undetected remainder and
     the number detected. *)
  let random_batch pending =
    let batch = Prpg.uniform_sequence prng ~bits ~length:Bitsim.word_bits in
    random_patterns := !random_patterns + Bitsim.word_bits;
    let next = surviving ~ctx nl pending batch in
    let detected = List.length pending - List.length next in
    if detected > 0 then test_set_rev := List.rev_append (Array.to_list batch) !test_set_rev;
    (next, detected)
  in
  let remaining = ref after_seed in
  let stall = ref 0 in
  while
    (not (expired ()))
    && !stall < random_stall && !random_patterns < random_budget && !remaining <> []
  do
    let next, detected = random_batch !remaining in
    remaining := next;
    if detected = 0 then incr stall else stall := 0
  done;
  let random_detected = List.length after_seed - List.length !remaining in
  (* Phase 3: deterministic ATPG with cross fault dropping. *)
  let atpg_calls = ref 0 in
  let atpg_patterns = ref 0 in
  let untestable = ref 0 in
  let aborted = ref 0 in
  let atpg_detected = ref 0 in
  let degrade_error = ref None in
  (* PODEM's view of the netlist, built by the first call. *)
  let podem = lazy (Podem.prepare nl) in
  let rec phase3 pending =
    match pending with
    | [] -> []
    | target :: rest -> (
      match Budget.check_deadline budget ~stage:Rerror.Topoff with
      | Error e ->
        degrade_error := Some e;
        pending
      | Ok () ->
        incr atpg_calls;
        let outcome =
          match generator with
          | Use_podem ->
            (match Podem.find_test ~backtrack_limit ~budget (Lazy.force podem) target with
             | Ok (Some p, _) -> `Test p
             | Ok (None, _) -> `Untestable
             | Error (Rerror.Aborted _) -> `Aborted
             | Error e -> `Stop e)
          | Use_sat ->
            (match Satgen.generate ~budget nl target with
             | Ok (Satgen.Test p) -> `Test p
             | Ok Satgen.Untestable -> `Untestable
             | Error e -> `Stop e)
        in
        (match outcome with
         | `Test p ->
           incr atpg_patterns;
           test_set_rev := p :: !test_set_rev;
           (* Drop every remaining fault this vector also detects. *)
           let next = surviving ~ctx nl (target :: rest) [| p |] in
           atpg_detected := !atpg_detected + (List.length rest + 1 - List.length next);
           phase3 next
         | `Untestable ->
           incr untestable;
           phase3 rest
         | `Aborted ->
           (* Stage-local backtrack limit: this fault alone is given up;
              deterministic generation continues for the rest. *)
           incr aborted;
           phase3 rest
         | `Stop e ->
           (* Budget/timeout/injection: the whole deterministic phase is
              cut short and the caller-visible degradation path runs. *)
           degrade_error := Some e;
           pending))
  in
  let leftover = ref (phase3 !remaining) in
  (* Graceful degradation: when deterministic ATPG was cut short, fall
     back to bounded random top-off rounds with exponential
     vector-count backoff (64, 128, 256, … patterns per retry), driven
     by the shared {!Retry} combinator: the attempt [scale] is the
     number of word-wide batches simulated per round. Random
     simulation costs no SAT/PODEM budget, so partial coverage keeps
     improving even after the solver quota is gone; only the deadline
     can stop the retries early ([Budget_cut]). *)
  let degraded_detected = ref 0 in
  let retries_used = ref 0 in
  (match !degrade_error with
   | None -> ()
   | Some e ->
     Metrics.incr c_degraded;
     Degrade.note ~stage:Rerror.Topoff
       ~detail:"deterministic ATPG cut short; random top-off fallback" e;
     let o =
       Retry.run
         ~policy:(Retry.policy ~max_attempts:fallback_rounds ())
         ~budget ~stage:Rerror.Topoff
         (fun ~attempt:_ ~scale ->
           for _batch = 1 to scale do
             if !leftover <> [] then begin
               let next, detected = random_batch !leftover in
               degraded_detected := !degraded_detected + detected;
               leftover := next
             end
           done;
           if !leftover = [] then Ok () else Error "undetected faults remain")
     in
     retries_used := o.attempts);
  (* Whatever survived the fallback is undetected with unknown status —
     counted as aborted, never as untestable. *)
  aborted := !aborted + List.length !leftover;
  Metrics.add c_atpg_calls !atpg_calls;
  Metrics.add c_atpg_patterns !atpg_patterns;
  Metrics.add c_random_patterns !random_patterns;
  Metrics.add c_untestable !untestable;
  Metrics.add c_aborted !aborted;
  Trace.add_attr "faults" (string_of_int total_faults);
  Trace.add_attr "atpg_calls" (string_of_int !atpg_calls);
  let testable = total_faults - !untestable in
  let detected =
    seed_detected + random_detected + !atpg_detected + !degraded_detected
  in
  {
    total_faults;
    seed_detected;
    random_detected;
    atpg_detected = !atpg_detected;
    untestable = !untestable;
    aborted = !aborted;
    final_coverage_percent =
      (if testable = 0 then 100. else 100. *. float_of_int detected /. float_of_int testable);
    seed_patterns = Array.length seed_patterns;
    random_patterns = !random_patterns;
    atpg_calls = !atpg_calls;
    atpg_patterns = !atpg_patterns;
    degraded = !degrade_error <> None;
    degraded_retries = !retries_used;
    degraded_detected = !degraded_detected;
    test_set = Array.of_list (List.rev !test_set_rev);
  }
