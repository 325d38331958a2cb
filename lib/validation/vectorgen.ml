module Ast = Mutsamp_hdl.Ast
module Sim = Mutsamp_hdl.Sim
module Check = Mutsamp_hdl.Check
module Stimuli = Mutsamp_hdl.Stimuli
module Prng = Mutsamp_util.Prng
module Mutant = Mutsamp_mutation.Mutant
module Kill = Mutsamp_mutation.Kill
module Equivalence = Mutsamp_mutation.Equivalence
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx

(* Observability series (no-ops unless metrics collection is on). *)
let c_candidates = Metrics.counter "vectorgen.candidates"
let c_accepted = Metrics.counter "vectorgen.accepted"
let c_vectors = Metrics.counter "vectorgen.vectors"
let c_sat_calls = Metrics.counter "vectorgen.sat_calls"
let c_sat_equivalent = Metrics.counter "vectorgen.sat_equivalent"
let c_sat_distinguished = Metrics.counter "vectorgen.sat_distinguished"

type config = {
  seed : int;
  max_stall : int;
  sequence_length : int;
  max_vectors : int;
  directed : bool;
  minimize : bool;
}

let default_config =
  {
    seed = 1;
    max_stall = 200;
    sequence_length = 8;
    max_vectors = 4096;
    directed = true;
    minimize = true;
  }

type outcome = {
  test_set : Sim.stimulus list list;
  killed : int list;
  equivalent : int list;
  unknown : int list;
  candidates_tried : int;
  total_vectors : int;
  degraded : string list;
}

let generate ?(config = default_config) ?budget design mutants =
  Trace.with_span "vectorgen" @@ fun () ->
  let budget = match budget with Some b -> b | None -> Budget.ambient () in
  let kill_ctx = { Ctx.default with budget = Some budget } in
  let degraded = ref [] in
  let note_deg detail e =
    if not (List.mem detail !degraded) then degraded := !degraded @ [ detail ];
    Degrade.note ~stage:Rerror.Vectorgen ~detail e
  in
  let deadline_stop = ref None in
  let expired () =
    match Budget.check_deadline budget ~stage:Rerror.Vectorgen with
    | Ok () -> false
    | Error e ->
      deadline_stop := Some e;
      true
  in
  let runner = Kill.make design mutants in
  let prng = Prng.create config.seed in
  let seq_len = if Check.is_combinational design then 1 else config.sequence_length in
  let alive = ref (List.init (Kill.size runner) (fun i -> i)) in
  let test_set = ref [] in
  let killed = ref [] in
  let total_vectors = ref 0 in
  let candidates = ref 0 in
  let stall = ref 0 in
  (* Random phase. Candidates are drawn [Kill.lanes] at a time, in the
     PRNG's order, and each block runs over the mutants alive when it is
     drawn; the loop then takes them one at a time, so it accepts, stalls
     and stops exactly as a one-candidate-at-a-time loop would. The
     undrawn tail of the last block is dropped: the PRNG serves this
     phase only. *)
  let block = ref [||] and block_run = ref None and next = ref 0 in
  while
    (not (expired ()))
    && !alive <> [] && !stall < config.max_stall
    && !total_vectors + seq_len <= config.max_vectors
  do
    if !next = Array.length !block then begin
      block := Array.init Kill.lanes (fun _ -> Stimuli.random_sequence prng design seq_len);
      block_run := Some (Kill.run runner ~alive:!alive ~ctx:kill_ctx !block);
      next := 0
    end;
    let k = !next in
    incr next;
    let candidate = !block.(k) in
    incr candidates;
    Metrics.incr c_candidates;
    match Kill.kills_in runner (Option.get !block_run) ~alive:!alive ~ctx:kill_ctx k with
    | [] -> incr stall
    | detections ->
      stall := 0;
      (* Keep only the useful prefix: cycles past the last detection
         contribute length but no kills. *)
      let last_cycle = List.fold_left (fun acc (_, c) -> max acc c) 0 detections in
      let kept = List.filteri (fun i _ -> i <= last_cycle) candidate in
      Metrics.incr c_accepted;
      Metrics.add c_vectors (List.length kept);
      test_set := kept :: !test_set;
      total_vectors := !total_vectors + List.length kept;
      let victims = List.map fst detections in
      killed := victims @ !killed;
      alive := List.filter (fun i -> not (List.mem i victims)) !alive
  done;
  (match !deadline_stop with
   | Some e -> note_deg "random phase stopped at deadline" e
   | None -> ());
  (* Directed phase: exact attack on each survivor. *)
  let equivalent = ref [] in
  let unknown = ref [] in
  if config.directed then begin
    Trace.with_span "vectorgen.directed" @@ fun () ->
    let mutant_arr = Array.of_list mutants in
    let oracle = Equivalence.make runner in
    let sat = Equivalence.regime oracle = Equivalence.Miter in
    let rec attack = function
      | [] -> ()
      | i :: rest ->
        if List.mem i !killed then attack rest
        else if expired () then begin
          (* Deadline: every remaining survivor stays unknown. *)
          (match !deadline_stop with
           | Some e -> note_deg "directed phase cut short; survivors left unknown" e
           | None -> ());
          List.iter
            (fun j -> if not (List.mem j !killed) then unknown := j :: !unknown)
            (i :: rest)
        end
        else begin
          (* Per-survivor containment: an injected failure or exhausted
             SAT budget downgrades this mutant to unknown and the attack
             moves on. *)
          let tripped =
            try Chaos.trip Chaos.Vectorgen_directed
            with Chaos.Injected _ -> Error (Rerror.Injected Rerror.Vectorgen)
          in
          match tripped with
          | Error e ->
            note_deg "directed attack skipped; mutant left unknown" e;
            unknown := i :: !unknown;
            attack rest
          | Ok () ->
          if sat then Metrics.incr c_sat_calls;
          let verdict =
            match Equivalence.decide ~budget oracle mutant_arr.(i) with
            | Ok v ->
              (match v with
               | Equivalence.Equivalent when sat -> Metrics.incr c_sat_equivalent
               | Equivalence.Distinguished _ when sat -> Metrics.incr c_sat_distinguished
               | _ -> ());
              v
            | Error e ->
              note_deg "sat attack cut short; mutant left unknown" e;
              Equivalence.Unknown
          in
          match verdict with
          | Equivalence.Equivalent ->
            equivalent := i :: !equivalent;
            attack rest
          | Equivalence.Unknown ->
            unknown := i :: !unknown;
            attack rest
          | Equivalence.Distinguished seq ->
            if !total_vectors + List.length seq <= config.max_vectors then begin
              Metrics.incr c_accepted;
              Metrics.add c_vectors (List.length seq);
              test_set := seq :: !test_set;
              total_vectors := !total_vectors + List.length seq;
              (* The distinguishing sequence kills [i] by construction
                 and may kill other survivors too. *)
              let victims =
                List.map fst (Kill.kills_at runner ~alive:(i :: rest) ~ctx:kill_ctx seq)
              in
              killed := victims @ !killed;
              attack (List.filter (fun j -> not (List.mem j victims)) rest)
            end
            else begin
              unknown := i :: !unknown;
              attack rest
            end
        end
    in
    attack !alive;
    alive := List.filter (fun i -> not (List.mem i !killed)) !alive
  end
  else unknown := !alive;
  let final_test_set = ref (List.rev !test_set) in
  (* Greedy set-cover minimisation: keep a subset of sequences that
     still kills every killed mutant, preferring sequences that cover
     many not-yet-covered mutants per cycle. *)
  if config.minimize && !final_test_set <> [] then begin
    let sequences = Array.of_list !final_test_set in
    let killed_list = List.sort_uniq Stdlib.compare !killed in
    let kill_sets =
      (* Re-simulation of sequences already paid for — run it unbudgeted
         so an exhausted quota cannot corrupt the set cover. *)
      let ctx = { Ctx.default with budget = Some Budget.unlimited } in
      let n = Array.length sequences and lanes = Kill.lanes in
      let blocks =
        Array.init ((n + lanes - 1) / lanes) (fun b ->
            let lo = b * lanes in
            Kill.run runner ~alive:killed_list ~ctx
              (Array.sub sequences lo (min lanes (n - lo))))
      in
      Array.init n (fun j ->
          List.map fst
            (Kill.kills_in runner blocks.(j / lanes) ~alive:killed_list ~ctx (j mod lanes)))
    in
    let uncovered = Hashtbl.create 64 in
    List.iter (fun i -> Hashtbl.replace uncovered i ()) killed_list;
    let chosen = ref [] in
    while Hashtbl.length uncovered > 0 do
      let score k =
        let fresh =
          List.fold_left
            (fun acc i -> if Hashtbl.mem uncovered i then acc + 1 else acc)
            0 kill_sets.(k)
        in
        (fresh, - List.length sequences.(k))
      in
      (* Each candidate is scored once; the strict [>] keeps the first
         maximum. *)
      let best = ref 0 and best_score = ref (score 0) in
      for k = 1 to Array.length sequences - 1 do
        let s = score k in
        if s > !best_score then begin
          best := k;
          best_score := s
        end
      done;
      let fresh, _ = !best_score in
      if fresh = 0 then
        (* Should not happen: every killed mutant is killed by some
           sequence. Guard against infinite loops all the same. *)
        Hashtbl.reset uncovered
      else begin
        chosen := !best :: !chosen;
        List.iter (Hashtbl.remove uncovered) kill_sets.(!best)
      end
    done;
    let keep = List.sort Stdlib.compare !chosen in
    final_test_set := List.map (fun k -> sequences.(k)) keep;
    total_vectors :=
      List.fold_left (fun acc seq -> acc + List.length seq) 0 !final_test_set
  end;
  let not_killed = List.filter (fun i -> not (List.mem i !killed)) (List.init (Kill.size runner) Fun.id) in
  let unknown_final =
    List.filter (fun i -> not (List.mem i !equivalent)) not_killed
  in
  Trace.add_attr "mutants" (string_of_int (Kill.size runner));
  Trace.add_attr "killed" (string_of_int (List.length (List.sort_uniq Stdlib.compare !killed)));
  Trace.add_attr "vectors" (string_of_int !total_vectors);
  {
    test_set = !final_test_set;
    killed = List.sort_uniq Stdlib.compare !killed;
    equivalent = List.sort_uniq Stdlib.compare !equivalent;
    unknown = List.sort_uniq Stdlib.compare unknown_final;
    candidates_tried = !candidates;
    total_vectors = !total_vectors;
    degraded = !degraded;
  }

let flatten_test_set outcome = List.concat outcome.test_set
