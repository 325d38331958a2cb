(* Tests for lib/validation: mutation-adequate vector generation and the
   mutation score. *)

module Bitvec = Mutsamp_util.Bitvec
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Generate = Mutsamp_mutation.Generate
module Mutant = Mutsamp_mutation.Mutant
module Kill = Mutsamp_mutation.Kill
module Vectorgen = Mutsamp_validation.Vectorgen
module Score = Mutsamp_validation.Score
module Registry = Mutsamp_circuits.Registry
module Trace = Mutsamp_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let and_gate = parse
    {|design and2 is
  input a : bit;
  input b : bit;
  output y : bit;
begin
  y := a and b;
end design;|}

let fsm = parse
    {|design fsm is
  input go : bit;
  output y : bit;
  reg s : unsigned(2) := 0;
begin
  y := '0';
  if s = 3 then
    y := '1';
    s := 0;
  else
    if go = '1' then
      s := s + 1;
    end if;
  end if;
end design;|}

let test_vectorgen_kills_all_nonequivalent () =
  let mutants = Generate.all and_gate in
  let outcome = Vectorgen.generate and_gate mutants in
  (* After the directed phase every mutant is killed or proven
     equivalent: nothing unknown on a 2-input combinational design. *)
  check_int "no unknown" 0 (List.length outcome.Vectorgen.unknown);
  check_int "partition"
    (List.length mutants)
    (List.length outcome.Vectorgen.killed + List.length outcome.Vectorgen.equivalent)

let test_vectorgen_test_set_really_kills () =
  let mutants = Generate.all and_gate in
  let outcome = Vectorgen.generate and_gate mutants in
  let runner = Kill.make and_gate mutants in
  let flags = Kill.killed_set runner outcome.Vectorgen.test_set in
  List.iter
    (fun i -> check_bool "killed claim verified" true flags.(i))
    outcome.Vectorgen.killed;
  List.iter
    (fun i -> check_bool "equivalent never killed" false flags.(i))
    outcome.Vectorgen.equivalent

let test_vectorgen_deterministic () =
  let mutants = Generate.all and_gate in
  let o1 = Vectorgen.generate and_gate mutants in
  let o2 = Vectorgen.generate and_gate mutants in
  check_bool "same test set" true (o1.Vectorgen.test_set = o2.Vectorgen.test_set);
  check_bool "same kills" true (o1.Vectorgen.killed = o2.Vectorgen.killed)

let test_vectorgen_seed_changes_result () =
  let mutants = Generate.all and_gate in
  let c1 = { Vectorgen.default_config with Vectorgen.seed = 1 } in
  let c2 = { Vectorgen.default_config with Vectorgen.seed = 2 } in
  let o1 = Vectorgen.generate ~config:c1 and_gate mutants in
  let o2 = Vectorgen.generate ~config:c2 and_gate mutants in
  (* Different seeds usually give different test sets (kills can match). *)
  check_bool "test sets differ" true
    (o1.Vectorgen.test_set <> o2.Vectorgen.test_set
    || o1.Vectorgen.candidates_tried <> o2.Vectorgen.candidates_tried)

let test_vectorgen_sequential_directed_phase () =
  let mutants = Generate.all fsm in
  let config =
    { Vectorgen.default_config with Vectorgen.max_stall = 10; sequence_length = 4 }
  in
  let outcome = Vectorgen.generate ~config fsm mutants in
  (* The weak random phase leaves survivors for the directed phase; the
     exact checker resolves every one of them on this small FSM. *)
  check_int "no unknown" 0 (List.length outcome.Vectorgen.unknown);
  check_bool "some killed" true (List.length outcome.Vectorgen.killed > 0)

let test_vectorgen_no_directed_leaves_unknown () =
  let mutants = Generate.all fsm in
  let config =
    { Vectorgen.default_config with Vectorgen.max_stall = 1; directed = false }
  in
  let outcome = Vectorgen.generate ~config fsm mutants in
  check_int "nothing proven equivalent" 0 (List.length outcome.Vectorgen.equivalent);
  check_int "partition"
    (List.length mutants)
    (List.length outcome.Vectorgen.killed + List.length outcome.Vectorgen.unknown)

let test_vectorgen_total_vectors () =
  let mutants = Generate.all and_gate in
  let outcome = Vectorgen.generate and_gate mutants in
  check_int "total matches flatten"
    (List.length (Vectorgen.flatten_test_set outcome))
    outcome.Vectorgen.total_vectors

let test_vectorgen_minimize_shrinks_or_equal () =
  let mutants = Generate.all fsm in
  let base = { Vectorgen.default_config with Vectorgen.max_stall = 60 } in
  let with_min = Vectorgen.generate ~config:base fsm mutants in
  let without_min =
    Vectorgen.generate ~config:{ base with Vectorgen.minimize = false } fsm mutants
  in
  check_bool "minimised not longer" true
    (with_min.Vectorgen.total_vectors <= without_min.Vectorgen.total_vectors);
  (* Same kill set either way. *)
  check_bool "same kills" true
    (with_min.Vectorgen.killed = without_min.Vectorgen.killed)

let test_vectorgen_minimized_set_still_kills () =
  let mutants = Generate.all fsm in
  let outcome = Vectorgen.generate fsm mutants in
  let runner = Kill.make fsm mutants in
  let flags = Kill.killed_set runner outcome.Vectorgen.test_set in
  List.iter (fun i -> check_bool "still killed after set cover" true flags.(i))
    outcome.Vectorgen.killed

let test_vectorgen_max_vectors_cap () =
  let mutants = Generate.all fsm in
  let config =
    { Vectorgen.default_config with Vectorgen.max_vectors = 8; sequence_length = 4 }
  in
  let outcome = Vectorgen.generate ~config fsm mutants in
  check_bool "cap respected" true (outcome.Vectorgen.total_vectors <= 8)

(* ------------------------------------------------------------------ *)
(* Score                                                              *)
(* ------------------------------------------------------------------ *)

let test_score_formula () =
  let s = Score.make ~total:100 ~killed:60 ~equivalent:20 in
  Alcotest.(check (float 1e-9)) "60/80" 75. s.Score.score_percent

let test_score_full () =
  let s = Score.make ~total:10 ~killed:10 ~equivalent:0 in
  Alcotest.(check (float 1e-9)) "100%" 100. s.Score.score_percent

let test_score_all_equivalent () =
  let s = Score.make ~total:5 ~killed:0 ~equivalent:5 in
  Alcotest.(check (float 1e-9)) "degenerate 100" 100. s.Score.score_percent

let test_score_invalid () =
  (try
     ignore (Score.make ~total:5 ~killed:4 ~equivalent:3);
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

let test_score_of_test_set_matches_outcome () =
  let mutants = Generate.all and_gate in
  let outcome = Vectorgen.generate and_gate mutants in
  let s =
    Score.of_test_set and_gate mutants ~equivalent:outcome.Vectorgen.equivalent
      outcome.Vectorgen.test_set
  in
  check_int "killed agrees" (List.length outcome.Vectorgen.killed) s.Score.killed;
  check_int "equivalent agrees"
    (List.length outcome.Vectorgen.equivalent)
    s.Score.equivalent;
  Alcotest.(check (float 1e-9)) "MS is 100 on this design" 100. s.Score.score_percent

(* The directed phase has its own span name: "equiv" belongs to
   Pipeline.classify_equivalents, and a shared name would merge the two
   layers in --profile. *)
let test_vectorgen_directed_span_name () =
  let design =
    match Registry.find "c17" with
    | Some e -> e.Registry.design ()
    | None -> Alcotest.fail "c17 not registered"
  in
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Trace.set_enabled false)
  @@ fun () ->
  ignore
    (Vectorgen.generate
       ~config:{ Vectorgen.default_config with Vectorgen.directed = true }
       design (Generate.all design));
  let rec names (s : Trace.span) = s.Trace.name :: List.concat_map names s.Trace.children in
  let all = List.concat_map names (Trace.roots ()) in
  check_bool "vectorgen.directed span" true (List.mem "vectorgen.directed" all);
  check_bool "no equiv span" false (List.mem "equiv" all)

(* ------------------------------------------------------------------ *)
(* Block replay against a one-candidate-at-a-time reference           *)
(* ------------------------------------------------------------------ *)

module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Prng = Mutsamp_util.Prng
module Budget = Mutsamp_robust.Budget
module Rerror = Mutsamp_robust.Error
module Degrade = Mutsamp_robust.Degrade

type reference = {
  outcome : Vectorgen.outcome;
  accepted : (int * int) list;
      (* per kept candidate: its 1-based number and the test-set length
         in cycles after keeping it *)
  spent : int array;  (* Fsim_pairs spent once candidate [k] is checked *)
  cut_at : int option;  (* first candidate whose check ran out of budget *)
}

(* The random phase and set-cover minimisation of [Vectorgen.generate]
   (directed phase off), one candidate at a time over [Sim]. *)
let reference_generate ?(budget = Budget.unlimited) (config : Vectorgen.config) design
    mutants =
  let sims = Array.of_list (List.map (fun (m : Mutant.t) -> Sim.create m.Mutant.design) mutants) in
  let n = Array.length sims in
  let cut_at = ref None and spent = ref [ 0 ] in
  let kills_at ~budget ~candidate alive seq =
    let reference = Sim.run design seq in
    let stopped = ref false in
    List.filter_map
      (fun i ->
        if !stopped then None
        else
          match Budget.spend budget ~stage:Rerror.Kill Budget.Fsim_pairs (List.length seq) with
          | Error _ ->
            stopped := true;
            if !cut_at = None then cut_at := Some candidate;
            None
          | Ok () ->
            spent := (List.hd !spent + List.length seq) :: List.tl !spent;
            Option.map (fun c -> (i, c)) (Test_mutation.sim_first_diff sims.(i) reference seq))
      alive
  in
  let prng = Prng.create config.Vectorgen.seed in
  let seq_len = if Check.is_combinational design then 1 else config.Vectorgen.sequence_length in
  let alive = ref (List.init n Fun.id) and test_set = ref [] and killed = ref [] in
  let total = ref 0 and candidates = ref 0 and stall = ref 0 and accepted = ref [] in
  while
    !alive <> [] && !stall < config.Vectorgen.max_stall
    && !total + seq_len <= config.Vectorgen.max_vectors
  do
    let candidate = Stimuli.random_sequence prng design seq_len in
    incr candidates;
    spent := List.hd !spent :: !spent;
    match kills_at ~budget ~candidate:!candidates !alive candidate with
    | [] -> incr stall
    | detections ->
      stall := 0;
      let last = List.fold_left (fun acc (_, c) -> max acc c) 0 detections in
      let kept = List.filteri (fun i _ -> i <= last) candidate in
      test_set := kept :: !test_set;
      total := !total + List.length kept;
      accepted := (!candidates, !total) :: !accepted;
      let victims = List.map fst detections in
      killed := victims @ !killed;
      alive := List.filter (fun i -> not (List.mem i victims)) !alive
  done;
  let spent = Array.of_list (List.rev !spent) in
  let killed = List.sort_uniq compare !killed in
  let sequences = Array.of_list (List.rev !test_set) in
  let final =
    if (not config.Vectorgen.minimize) || sequences = [||] then Array.to_list sequences
    else begin
      let kill_sets =
        Array.map
          (fun seq -> List.map fst (kills_at ~budget:Budget.unlimited ~candidate:0 killed seq))
          sequences
      in
      let uncovered = Hashtbl.create 64 in
      List.iter (fun i -> Hashtbl.replace uncovered i ()) killed;
      let chosen = ref [] in
      while Hashtbl.length uncovered > 0 do
        let score k =
          ( List.length (List.filter (Hashtbl.mem uncovered) kill_sets.(k)),
            -List.length sequences.(k) )
        in
        let best = ref 0 in
        for k = 1 to Array.length sequences - 1 do
          if score k > score !best then best := k
        done;
        if fst (score !best) = 0 then Hashtbl.reset uncovered
        else begin
          chosen := !best :: !chosen;
          List.iter (Hashtbl.remove uncovered) kill_sets.(!best)
        end
      done;
      List.map (fun k -> sequences.(k)) (List.sort compare !chosen)
    end
  in
  {
    outcome =
      {
        Vectorgen.test_set = final;
        killed;
        equivalent = [];
        unknown = List.filter (fun i -> not (List.mem i killed)) (List.init n Fun.id);
        candidates_tried = !candidates;
        total_vectors = List.fold_left (fun acc s -> acc + List.length s) 0 final;
        degraded = [];
      };
    accepted = List.rev !accepted;
    spent;
    cut_at = !cut_at;
  }

let check_same what (want : Vectorgen.outcome) (got : Vectorgen.outcome) =
  check_bool (what ^ ": test_set") true (want.Vectorgen.test_set = got.Vectorgen.test_set);
  Alcotest.(check (list int)) (what ^ ": killed") want.Vectorgen.killed got.Vectorgen.killed;
  check_int (what ^ ": candidates_tried") want.Vectorgen.candidates_tried
    got.Vectorgen.candidates_tried;
  check_int (what ^ ": total_vectors") want.Vectorgen.total_vectors got.Vectorgen.total_vectors;
  Alcotest.(check (list string)) (what ^ ": degraded") want.Vectorgen.degraded
    got.Vectorgen.degraded

let replay_config =
  { Vectorgen.default_config with Vectorgen.seed = 7; max_stall = 60; directed = false }

(* Runs ending at a block edge and inside a block — by [max_stall], by
   [max_vectors] and by a budget cut — all match the reference. The
   cut-off points are read off a long reference run. *)
let test_replay_matches_reference name () =
  let design =
    match Registry.find name with
    | Some e -> e.Registry.design ()
    | None -> Alcotest.fail (name ^ " not registered")
  in
  let mutants = Generate.all design in
  let lanes = Kill.lanes in
  let compare_run ?budget what config =
    let want =
      reference_generate ?budget:(Option.map (fun q -> Budget.create ~fsim_pairs:q ()) budget)
        config design mutants
    in
    let got =
      Vectorgen.generate ~config
        ?budget:(Option.map (fun q -> Budget.create ~fsim_pairs:q ()) budget)
        design mutants
    in
    check_same (name ^ " " ^ what) want.outcome got;
    want
  in
  ignore (compare_run "base" replay_config);
  (* [max_stall]: past the longest gap between kills, a run keeps every
     kill and stops [max_stall] candidates after the last one. *)
  let long = compare_run "long" { replay_config with Vectorgen.max_stall = 1000 } in
  let survivors = long.outcome.Vectorgen.unknown <> [] in
  if survivors && long.accepted <> [] then begin
    let last, _ = List.nth long.accepted (List.length long.accepted - 1) in
    let gap =
      fst
        (List.fold_left
           (fun (g, prev) (c, _) -> (max g (c - prev), c))
           (0, 0) long.accepted)
    in
    let edge = ref (max 1 gap) in
    while (last + !edge) mod lanes <> 0 do incr edge done;
    List.iter
      (fun (what, stall, at_edge) ->
        let r = compare_run what { replay_config with Vectorgen.max_stall = stall } in
        check_bool (name ^ " " ^ what ^ " ends where planned") at_edge
          (r.outcome.Vectorgen.candidates_tried mod lanes = 0))
      [ ("stall at block edge", !edge, true); ("stall inside block", !edge + 20, false) ]
  end;
  (* [max_vectors]: a cap one cycle short of room for another candidate
     after the [j]-th kill stops the run right there. *)
  let seq_len = if Check.is_combinational design then 1 else replay_config.Vectorgen.sequence_length in
  let cap_after (c, total) =
    let r =
      compare_run
        (Printf.sprintf "max_vectors after candidate %d" c)
        { replay_config with Vectorgen.max_stall = 1000; max_vectors = total + seq_len - 1 }
    in
    check_int (name ^ " cap stops at the kill") c r.outcome.Vectorgen.candidates_tried
  in
  (match List.find_opt (fun (c, _) -> c mod lanes <> 0) (List.rev long.accepted) with
   | Some a -> cap_after a
   | None -> ());
  (match List.find_opt (fun (c, _) -> c mod lanes = 0) long.accepted with
   | Some a -> cap_after a
   | None -> ());
  (* Budget: a quota that runs out halfway through the checks of a
     candidate inside the second block, or the middle one if the run is
     shorter. *)
  let base = compare_run "unbudgeted" replay_config in
  let tried = base.outcome.Vectorgen.candidates_tried in
  let target = if tried > lanes + 18 then lanes + 18 else max 1 ((tried + 1) / 2) in
  let quota = (base.spent.(target - 1) + base.spent.(target)) / 2 in
  Degrade.reset ();
  let cut = compare_run ~budget:quota "budget cut" replay_config in
  Degrade.reset ();
  Alcotest.(check (option int)) (name ^ " cut where planned") (Some target) cut.cut_at

let suite =
  [
    ( "validation.vectorgen",
      [
        Alcotest.test_case "kills all nonequivalent" `Quick test_vectorgen_kills_all_nonequivalent;
        Alcotest.test_case "test set verified" `Quick test_vectorgen_test_set_really_kills;
        Alcotest.test_case "deterministic" `Quick test_vectorgen_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_vectorgen_seed_changes_result;
        Alcotest.test_case "sequential directed" `Quick test_vectorgen_sequential_directed_phase;
        Alcotest.test_case "no directed -> unknown" `Quick test_vectorgen_no_directed_leaves_unknown;
        Alcotest.test_case "total vectors" `Quick test_vectorgen_total_vectors;
        Alcotest.test_case "minimize shrinks" `Quick test_vectorgen_minimize_shrinks_or_equal;
        Alcotest.test_case "minimized still kills" `Quick test_vectorgen_minimized_set_still_kills;
        Alcotest.test_case "max vectors cap" `Quick test_vectorgen_max_vectors_cap;
        Alcotest.test_case "directed phase span name" `Quick
          test_vectorgen_directed_span_name;
      ] );
    ( "validation.replay",
      List.map
        (fun name ->
          Alcotest.test_case (name ^ " matches one-at-a-time") `Quick
            (test_replay_matches_reference name))
        [ "c17"; "b01"; "b03"; "c432" ] );
    ( "validation.score",
      [
        Alcotest.test_case "formula" `Quick test_score_formula;
        Alcotest.test_case "full kill" `Quick test_score_full;
        Alcotest.test_case "all equivalent" `Quick test_score_all_equivalent;
        Alcotest.test_case "invalid counts" `Quick test_score_invalid;
        Alcotest.test_case "of_test_set" `Quick test_score_of_test_set_matches_outcome;
      ] );
  ]
