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
    ( "validation.score",
      [
        Alcotest.test_case "formula" `Quick test_score_formula;
        Alcotest.test_case "full kill" `Quick test_score_full;
        Alcotest.test_case "all equivalent" `Quick test_score_all_equivalent;
        Alcotest.test_case "invalid counts" `Quick test_score_invalid;
        Alcotest.test_case "of_test_set" `Quick test_score_of_test_set_matches_outcome;
      ] );
  ]
