(* Tests for lib/sampling: sampling strategies and the NLFCE metric. *)

module Prng = Mutsamp_util.Prng
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant
module Generate = Mutsamp_mutation.Generate
module Strategy = Mutsamp_sampling.Strategy
module Nlfce = Mutsamp_sampling.Nlfce
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Netlist = Mutsamp_netlist.Netlist
module B = Netlist.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let alu = parse
    {|design alu is
  input a : unsigned(4);
  input b : unsigned(4);
  input op : bit;
  output y : unsigned(4);
  output f : bit;
  const K : unsigned(4) := 7;
begin
  f := a < b;
  if op = '1' then
    y := a + b;
  else
    y := a - b;
  end if;
  if a = K then
    f := '1';
  end if;
end design;|}

let mutants = Generate.all alu

(* ------------------------------------------------------------------ *)
(* Strategy                                                           *)
(* ------------------------------------------------------------------ *)

let test_sample_size () =
  check_int "10% of 770" 77 (Strategy.sample_size ~rate:0.1 770);
  check_int "rounds" 3 (Strategy.sample_size ~rate:0.1 25);
  check_int "at least one" 1 (Strategy.sample_size ~rate:0.01 5);
  check_int "empty population" 0 (Strategy.sample_size ~rate:0.5 0);
  (try
     ignore (Strategy.sample_size ~rate:0. 10);
     Alcotest.fail "zero rate"
   with Invalid_argument _ -> ());
  (try
     ignore (Strategy.sample_size ~rate:1.5 10);
     Alcotest.fail "rate > 1"
   with Invalid_argument _ -> ())

let test_random_sample_properties () =
  let prng = Prng.create 42 in
  let sample = Strategy.sample prng Strategy.Random_uniform mutants ~rate:0.1 in
  check_int "size" (Strategy.sample_size ~rate:0.1 (List.length mutants))
    (List.length sample);
  (* Subset, order preserved, distinct. *)
  let ids = List.map (fun (m : Mutant.t) -> m.id) sample in
  check_bool "sorted ids" true (List.sort Stdlib.compare ids = ids);
  List.iter
    (fun (m : Mutant.t) ->
      check_bool "member of population" true
        (List.exists (fun (m' : Mutant.t) -> m'.id = m.id) mutants))
    sample

let test_random_sample_deterministic () =
  let s1 = Strategy.sample (Prng.create 7) Strategy.Random_uniform mutants ~rate:0.1 in
  let s2 = Strategy.sample (Prng.create 7) Strategy.Random_uniform mutants ~rate:0.1 in
  check_bool "same" true (s1 = s2)

let weights_all_one =
  List.map (fun op -> (op, 1.)) Operator.all

let test_weighted_same_total_as_random () =
  (* The paper requires both strategies to extract the same count. *)
  let n_random =
    List.length (Strategy.sample (Prng.create 1) Strategy.Random_uniform mutants ~rate:0.1)
  in
  let n_weighted =
    List.length
      (Strategy.sample (Prng.create 1) (Strategy.Operator_weighted weights_all_one)
         mutants ~rate:0.1)
  in
  check_int "same count" n_random n_weighted

let test_weighted_respects_weights () =
  (* Weight only CR: the sample concentrates on CR mutants (up to the CR
     population size). *)
  let weights = [ (Operator.CR, 100.) ] in
  let sample =
    Strategy.sample (Prng.create 3) (Strategy.Operator_weighted weights) mutants
      ~rate:0.1
  in
  let total = Strategy.sample_size ~rate:0.1 (List.length mutants) in
  let cr_pop =
    List.length (List.filter (fun (m : Mutant.t) -> m.op = Operator.CR) mutants)
  in
  let cr_in_sample =
    List.length (List.filter (fun (m : Mutant.t) -> m.op = Operator.CR) sample)
  in
  check_int "sample full size" total (List.length sample);
  check_int "CR saturated or full" (min total cr_pop) cr_in_sample

let test_quotas_sum_and_caps () =
  let populations = Generate.count_by_operator mutants in
  let populations = List.filter (fun (_, n) -> n > 0) populations in
  let total = 20 in
  let q =
    Strategy.quotas (Strategy.Operator_weighted weights_all_one) populations ~total
  in
  check_int "sums to total" total (List.fold_left (fun acc (_, n) -> acc + n) 0 q);
  List.iter
    (fun (op, n) ->
      let pop = List.assoc op populations in
      check_bool "within population" true (n >= 0 && n <= pop))
    q

let test_quotas_zero_weights_degrade () =
  let populations = [ (Operator.LOR, 10); (Operator.VR, 30) ] in
  let q =
    Strategy.quotas
      (Strategy.Operator_weighted [ (Operator.LOR, 0.); (Operator.VR, 0.) ])
      populations ~total:4
  in
  check_int "total kept" 4 (List.fold_left (fun acc (_, n) -> acc + n) 0 q)

let prop_weighted_total_always_met =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 1 10)) in
  QCheck.Test.make ~name:"weighted sampling meets its budget" ~count:100
    (QCheck.make gen) (fun (seed, rate10) ->
      let rate = float_of_int rate10 /. 10. in
      let prng = Prng.create seed in
      let weights =
        List.map (fun op -> (op, Prng.float prng *. 10.)) Operator.all
      in
      let sample =
        Strategy.sample prng (Strategy.Operator_weighted weights) mutants ~rate
      in
      List.length sample = Strategy.sample_size ~rate (List.length mutants))

(* ------------------------------------------------------------------ *)
(* Nlfce                                                              *)
(* ------------------------------------------------------------------ *)

let full_adder () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

let test_nlfce_formula () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  (* "Mutation" data: 4 strong patterns. Random baseline: a repetitive,
     weak 32-pattern sequence that needs longer to reach the same
     coverage. *)
  let mutation =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b011; 0b101; 0b110; 0b000 |])
  in
  let random_patterns = Array.init 32 (fun i -> [| 0b000; 0b111; 0b001; 0b011; 0b101; 0b110; 0b010; 0b100 |].(i mod 8)) in
  let random =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) random_patterns)
  in
  let m = Nlfce.of_reports ~min_compare_length:1 ~mutation ~random () in
  Alcotest.(check (float 1e-9)) "product" (m.Nlfce.delta_fc_percent *. m.Nlfce.delta_l_percent) m.Nlfce.nlfce;
  Alcotest.(check (float 1e-9)) "mfc" (Fsim.coverage_percent mutation) m.Nlfce.mfc;
  Alcotest.(check (float 1e-9)) "rfc at L_m" (Fsim.coverage_at random 4) m.Nlfce.rfc_at_equal_length;
  check_int "L_m" 4 m.Nlfce.mutation_length

let test_nlfce_lr_reaches_mfc () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let mutation =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b011; 0b101; 0b110; 0b000 |])
  in
  let random = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 32 (fun i -> i mod 8))) in
  let m = Nlfce.of_reports ~min_compare_length:1 ~mutation ~random () in
  if not m.Nlfce.random_saturated then begin
    check_bool "L_r reaches MFC" true
      (Fsim.coverage_at random m.Nlfce.random_length_for_mfc >= m.Nlfce.mfc -. 1e-9);
    if m.Nlfce.random_length_for_mfc > 0 then
      check_bool "L_r minimal" true
        (Fsim.coverage_at random (m.Nlfce.random_length_for_mfc - 1) < m.Nlfce.mfc -. 1e-9)
  end

let test_nlfce_identical_data_zero () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let patterns = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 8 (fun i -> i)) in
  let r = Fsim.run nl ~faults ~sequence:patterns in
  let m = Nlfce.of_reports ~mutation:r ~random:r () in
  Alcotest.(check (float 1e-9)) "dFC 0" 0. m.Nlfce.delta_fc_percent;
  check_bool "nlfce <= 0" true (m.Nlfce.nlfce <= 1e-9)

let test_nlfce_double_loss_is_negative () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  (* "Mutation" data: 8 weak repeated patterns. Random: strong coverage
     quickly — both gains negative, NLFCE must be negative. *)
  let mutation = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.make 8 0b000)) in
  let random = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 32 (fun i -> i mod 8))) in
  let m = Nlfce.of_reports ~min_compare_length:1 ~mutation ~random () in
  check_bool "dFC negative" true (m.Nlfce.delta_fc_percent < 0.);
  check_bool "nlfce not positive" true (m.Nlfce.nlfce <= 0.)

let test_nlfce_min_compare_length_guards () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  (* One strong vector vs a random set: with the floor, the comparison
     uses 16 random vectors, not 1. *)
  let mutation = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b011 |]) in
  let random = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 32 (fun i -> i mod 8))) in
  let guarded = Nlfce.of_reports ~min_compare_length:16 ~mutation ~random () in
  let raw = Nlfce.of_reports ~min_compare_length:1 ~mutation ~random () in
  check_bool "guard lowers or keeps dFC" true
    (guarded.Nlfce.delta_fc_percent <= raw.Nlfce.delta_fc_percent +. 1e-9);
  Alcotest.(check (float 1e-9)) "guarded rfc is at 16"
    (Fsim.coverage_at random 16) guarded.Nlfce.rfc_at_equal_length

let test_nlfce_rejects_different_fault_lists () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let r1 = Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 1 |]) in
  let r2 =
    Fsim.run nl
      ~faults:(List.filteri (fun i _ -> i < 3) faults)
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 1 |])
  in
  (try
     ignore (Nlfce.of_reports ~mutation:r1 ~random:r2 ());
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "sampling.strategy",
      [
        Alcotest.test_case "sample size" `Quick test_sample_size;
        Alcotest.test_case "random properties" `Quick test_random_sample_properties;
        Alcotest.test_case "random deterministic" `Quick test_random_sample_deterministic;
        Alcotest.test_case "same total both strategies" `Quick test_weighted_same_total_as_random;
        Alcotest.test_case "respects weights" `Quick test_weighted_respects_weights;
        Alcotest.test_case "quotas sum and caps" `Quick test_quotas_sum_and_caps;
        Alcotest.test_case "zero weights degrade" `Quick test_quotas_zero_weights_degrade;
        q prop_weighted_total_always_met;
      ] );
    ( "sampling.nlfce",
      [
        Alcotest.test_case "formula" `Quick test_nlfce_formula;
        Alcotest.test_case "L_r reaches MFC" `Quick test_nlfce_lr_reaches_mfc;
        Alcotest.test_case "identical data zero" `Quick test_nlfce_identical_data_zero;
        Alcotest.test_case "double loss negative" `Quick test_nlfce_double_loss_is_negative;
        Alcotest.test_case "compare-length guard" `Quick test_nlfce_min_compare_length_guards;
        Alcotest.test_case "rejects mismatched lists" `Quick test_nlfce_rejects_different_fault_lists;
      ] );
  ]
