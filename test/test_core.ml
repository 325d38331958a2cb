(* Tests for lib/core: pipeline preparation, stimulus/code conversion,
   equivalent-mutant classification, and the experiment drivers on small
   circuits with quick budgets. *)

module Bitvec = Mutsamp_util.Bitvec
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim
module Netlist = Mutsamp_netlist.Netlist
module Registry = Mutsamp_circuits.Registry
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant
module Kill = Mutsamp_mutation.Kill
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Score = Mutsamp_validation.Score
module Nlfce = Mutsamp_sampling.Nlfce
module Topoff = Mutsamp_atpg.Topoff
module Config = Mutsamp_core.Config
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Report = Mutsamp_core.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let tiny_config =
  {
    Config.quick with
    Config.vector =
      {
        Config.quick.Config.vector with
        Mutsamp_validation.Vectorgen.max_stall = 40;
        max_vectors = 256;
      };
    Config.min_random_length = 64;
    random_multiplier = 4;
  }

let b02_pipeline = lazy (
  match Registry.find "b02" with
  | Some e -> Pipeline.prepare (e.Registry.design ())
  | None -> Alcotest.fail "b02 missing")

let c17_pipeline = lazy (
  match Registry.find "c17" with
  | Some e -> Pipeline.prepare (e.Registry.design ())
  | None -> Alcotest.fail "c17 missing")

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let test_prepare_populates_everything () =
  let p = Lazy.force b02_pipeline in
  check_bool "mutants" true (List.length p.Pipeline.mutants > 50);
  check_bool "faults" true (List.length p.Pipeline.faults > 20);
  check_bool "sequential" true p.Pipeline.sequential;
  let p2 = Lazy.force c17_pipeline in
  check_bool "combinational" false p2.Pipeline.sequential

let test_code_of_stimulus_roundtrip () =
  let p = Lazy.force c17_pipeline in
  (* c17 behavioural inputs g1, g2, g3, g6, g7 map to netlist inputs in
     declaration order, one bit each. *)
  let stim v =
    List.mapi (fun k name -> (name, bv 1 ((v lsr k) land 1))) [ "g1"; "g2"; "g3"; "g6"; "g7" ]
  in
  for v = 0 to 31 do
    check_int "code" v
      (Mutsamp_util.Packvec.to_code (Pipeline.pattern_of_stimulus p (stim v)))
  done

let test_codes_of_sequences_concatenates () =
  let p = Lazy.force c17_pipeline in
  let stim v =
    List.mapi (fun k name -> (name, bv 1 ((v lsr k) land 1))) [ "g1"; "g2"; "g3"; "g6"; "g7" ]
  in
  let codes =
    Array.map Mutsamp_util.Packvec.to_code
      (Pipeline.patterns_of_sequences p [ [ stim 1; stim 2 ]; [ stim 3 ] ])
  in
  Alcotest.(check (array int)) "flattened" [| 1; 2; 3 |] codes

(* One stimulus check, in [Mapping.set_inputs], for every path from a
   word-level stimulus to the netlist: mutant execution, the pattern
   conversion and the Bitsim packing reject a missing input, a wrong
   width and a name that is no input alike. *)
let test_malformed_stimuli_rejected () =
  let p = Lazy.force c17_pipeline in
  let runner = Kill.make p.Pipeline.design p.Pipeline.mutants in
  let good = List.map (fun name -> (name, bv 1 0)) [ "g1"; "g2"; "g3"; "g6"; "g7" ] in
  let malformed =
    [
      ("missing input", List.remove_assoc "g7" good);
      ("wrong width", ("g1", bv 2 0) :: List.remove_assoc "g1" good);
      ("no such input", good @ [ ("g22", bv 1 0) ]);
    ]
  in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Mutsamp_synth.Mapping.Mapping_error _ -> ()
  in
  List.iter
    (fun (case, stim) ->
      rejects ("Kill.kills_at: " ^ case) (fun () -> ignore (Kill.kills_at runner [ stim ]));
      rejects ("Pipeline.pattern_of_stimulus: " ^ case) (fun () ->
          ignore (Pipeline.pattern_of_stimulus p stim));
      rejects ("Mapping.pack_stimulus: " ^ case) (fun () ->
          ignore (Mutsamp_synth.Mapping.pack_stimulus p.Pipeline.mapping stim)))
    malformed;
  (* The well-formed stimulus passes all three. *)
  ignore (Kill.kills_at runner [ good ]);
  ignore (Pipeline.pattern_of_stimulus p good);
  ignore (Mutsamp_synth.Mapping.pack_stimulus p.Pipeline.mapping good)

let test_fault_simulate_runs () =
  let p = Lazy.force c17_pipeline in
  let r =
    Pipeline.fault_simulate p
      (Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs p.Pipeline.netlist))
         (Array.init 32 (fun i -> i)))
  in
  (* Exhaustive patterns on c17 detect every collapsed fault. *)
  Alcotest.(check (float 1e-6)) "full coverage" 100. (Fsim.coverage_percent r)

let test_scan_codes_layout () =
  let p = Lazy.force b02_pipeline in
  let seq = [ [ ("linea", bv 1 1) ]; [ ("linea", bv 1 0) ] ] in
  let codes =
    Array.map Mutsamp_util.Packvec.to_code (Pipeline.scan_patterns_of_sequences p [ seq ])
  in
  check_int "one code per cycle" 2 (Array.length codes);
  (* Cycle 0 starts from reset: all scan bits zero, so the code is just
     the PI bit. *)
  check_int "first cycle pi only" 1 codes.(0)

let test_classify_equivalents_sound () =
  let p = Lazy.force c17_pipeline in
  let eq = Pipeline.classify_equivalents ~screen:64 ~seed:3 p in
  (* Claimed equivalents must survive every exhaustive input. *)
  let runner = Kill.make p.Pipeline.design p.Pipeline.mutants in
  let all = List.init 32 (fun v ->
      [ List.mapi (fun k name -> (name, bv 1 ((v lsr k) land 1)))
          [ "g1"; "g2"; "g3"; "g6"; "g7" ] ]) in
  let flags = Kill.killed_set runner all in
  List.iter (fun i -> check_bool "equivalent survives" false flags.(i)) eq;
  (* And non-equivalents are killed by the exhaustive set. *)
  List.iteri
    (fun i _ ->
      if not (List.mem i eq) then check_bool "non-equivalent killed" true flags.(i))
    p.Pipeline.mutants

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

let test_operator_efficiency_rows () =
  let p = Lazy.force c17_pipeline in
  let row =
    Experiments.operator_efficiency ~config:tiny_config
      ~operators:Operator.all p ~name:"c17"
  in
  check_bool "has rows" true (List.length row.Experiments.per_operator >= 4);
  List.iter
    (fun (r : Experiments.operator_row) ->
      check_bool "count positive" true (r.Experiments.mutant_count > 0);
      check_bool "metric finite" true (Float.is_finite r.Experiments.metric.Nlfce.nlfce))
    row.Experiments.per_operator

let test_operator_efficiency_skips_absent () =
  (* c17 has no arithmetic, so AOR yields no row. *)
  let p = Lazy.force c17_pipeline in
  let row =
    Experiments.operator_efficiency ~config:tiny_config
      ~operators:[ Operator.AOR ] p ~name:"c17"
  in
  check_int "no AOR row" 0 (List.length row.Experiments.per_operator)

(* Without a store no stage computes a key, so the pipeline's content
   hashes are never forced. *)
let test_storeless_run_leaves_hashes_unforced () =
  let p =
    match Registry.find "c17" with
    | Some e -> Pipeline.prepare (e.Registry.design ())
    | None -> Alcotest.fail "c17 missing"
  in
  ignore
    (Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
       ~name:"c17");
  ignore (Pipeline.classify_equivalents ~screen:64 ~seed:3 p);
  check_bool "hashes unforced" false (Lazy.is_val p.Pipeline.hashes)

let test_weights_positive_and_bounded () =
  let p = Lazy.force c17_pipeline in
  let row =
    Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
      ~name:"c17"
  in
  let weights = Experiments.weights_of_table1 row in
  List.iter
    (fun (_, w) -> check_bool "in [1,8]" true (w >= 1. && w <= 8.))
    weights;
  check_bool "max is 8 when some op has positive nlfce" true
    (List.exists (fun (_, w) -> w > 7.99) weights
    || List.for_all (fun (_, w) -> w = 1.) weights)

let test_average_table1 () =
  let p = Lazy.force c17_pipeline in
  let mk seed =
    Experiments.operator_efficiency
      ~config:{ tiny_config with Config.seed } ~operators:Operator.all p ~name:"c17"
  in
  let rows = [ mk 1; mk 2; mk 3 ] in
  let avg = Experiments.average_table1 rows in
  check_int "same row count"
    (List.length (List.hd rows).Experiments.per_operator)
    (List.length avg.Experiments.per_operator);
  (* The averaged NLFCE lies within the min..max envelope. *)
  List.iter
    (fun (r : Experiments.operator_row) ->
      let values =
        List.map
          (fun row ->
            (List.find
               (fun (x : Experiments.operator_row) -> x.Experiments.op = r.Experiments.op)
               row.Experiments.per_operator).Experiments.metric.Nlfce.nlfce)
          rows
      in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      check_bool "within envelope" true
        (r.Experiments.metric.Nlfce.nlfce >= lo -. 1e-9
        && r.Experiments.metric.Nlfce.nlfce <= hi +. 1e-9))
    avg.Experiments.per_operator

let test_sampling_comparison_structure () =
  let p = Lazy.force c17_pipeline in
  let row =
    Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
      ~name:"c17"
  in
  let weights = Experiments.weights_of_table1 row in
  let eq = Pipeline.classify_equivalents ~screen:64 ~seed:3 p in
  let t2 =
    Experiments.sampling_comparison ~config:tiny_config p ~name:"c17" ~weights
      ~equivalents:eq
  in
  check_int "same sampled count" t2.Experiments.random.Experiments.sampled_count
    t2.Experiments.oriented.Experiments.sampled_count;
  check_bool "ms within range" true
    (t2.Experiments.random.Experiments.ms.Score.score_percent >= 0.
    && t2.Experiments.random.Experiments.ms.Score.score_percent <= 100.)

let test_atpg_effort_ordering () =
  let p = Lazy.force c17_pipeline in
  let mutation_sequences =
    (* Modest validation data: exhaustive codes as 1-cycle sequences. *)
    List.init 8 (fun v ->
        [ List.mapi (fun k name -> (name, bv 1 ((v lsr k) land 1)))
            [ "g1"; "g2"; "g3"; "g6"; "g7" ] ])
  in
  let rows =
    Experiments.atpg_effort ~config:tiny_config p ~name:"c17" ~mutation_sequences
  in
  check_int "three rows" 3 (List.length rows);
  let by_kind kind =
    (List.find (fun (r : Experiments.atpg_row) -> r.Experiments.seed_kind = kind) rows)
      .Experiments.report
  in
  let none = by_kind "none" and mutation = by_kind "mutation" in
  (* Every policy ends at full coverage of testable faults on c17. *)
  Alcotest.(check (float 1e-6)) "none full" 100. none.Topoff.final_coverage_percent;
  Alcotest.(check (float 1e-6)) "mutation full" 100. mutation.Topoff.final_coverage_percent;
  (* The seed detects faults, so the seeded run needs no more random
     patterns than the unseeded one. *)
  check_bool "seed detected something" true (mutation.Topoff.seed_detected > 0)

let test_atpg_effort_sequential_scan () =
  let p = Lazy.force b02_pipeline in
  let seq = [ [ ("linea", bv 1 1) ]; [ ("linea", bv 1 0) ]; [ ("linea", bv 1 1) ] ] in
  let rows = Experiments.atpg_effort ~config:tiny_config p ~name:"b02" ~mutation_sequences:[ seq ] in
  List.iter
    (fun (r : Experiments.atpg_row) ->
      check_bool "coverage reported" true
        (r.Experiments.report.Topoff.final_coverage_percent > 0.))
    rows

let test_ms_vs_rate_monotone_tendency () =
  let p = Lazy.force c17_pipeline in
  let eq = Pipeline.classify_equivalents ~screen:64 ~seed:3 p in
  let weights = List.map (fun op -> (op, 1.)) Operator.all in
  let rows =
    Experiments.ms_vs_rate ~config:tiny_config p ~name:"c17" ~weights ~equivalents:eq
      ~rates:[ 0.05; 0.4; 1.0 ]
  in
  check_int "three rates" 3 (List.length rows);
  (* Sampling every mutant must reach (near) the full-population MS,
     which for c17 with exact equivalents is 100%. *)
  (match List.rev rows with
   | (_, ms_r, ms_o) :: _ ->
     Alcotest.(check (float 1e-6)) "random full rate" 100. ms_r;
     Alcotest.(check (float 1e-6)) "oriented full rate" 100. ms_o
   | [] -> Alcotest.fail "no rows")

(* ------------------------------------------------------------------ *)
(* Paper data                                                         *)
(* ------------------------------------------------------------------ *)

module Paper_data = Mutsamp_core.Paper_data

let test_paper_data_shapes () =
  check_int "13 table1 rows" 13 (List.length Paper_data.table1);
  check_int "4 table2 rows" 4 (List.length Paper_data.table2);
  check_int "c432 sample size" 77 Paper_data.c432_sampled_mutants

let test_published_weights () =
  let weights = Paper_data.published_weights "c432" in
  check_int "all ten operators" 10 (List.length weights);
  (* CVR has c432's best published NLFCE (955), so its weight is the
     8x cap; unmeasured operators sit at 1. *)
  Alcotest.(check (float 1e-9)) "CVR capped" 8. (List.assoc Operator.CVR weights);
  Alcotest.(check (float 1e-9)) "SDL unmeasured" 1. (List.assoc Operator.SDL weights);
  let lor_w = List.assoc Operator.LOR weights in
  let vr_w = List.assoc Operator.VR weights in
  check_bool "ordering follows published table" true (lor_w < vr_w && vr_w < 8.)

let test_published_weights_unknown_circuit () =
  let weights = Paper_data.published_weights "nonesuch" in
  List.iter (fun (_, w) -> Alcotest.(check (float 1e-9)) "all one" 1. w) weights

let test_table1_ordering_predicate () =
  check_bool "holds" true
    (Paper_data.table1_ordering_holds
       [ (Operator.LOR, 1.); (Operator.VR, 5.); (Operator.CVR, 9.) ]
       "x");
  check_bool "fails" false
    (Paper_data.table1_ordering_holds
       [ (Operator.LOR, 10.); (Operator.VR, 5.) ]
       "x");
  check_bool "no LOR trivially true" true
    (Paper_data.table1_ordering_holds [ (Operator.VR, 5.) ] "x")

(* ------------------------------------------------------------------ *)
(* End-to-end pinned run                                               *)
(* ------------------------------------------------------------------ *)

(* The complete flow on c17 with a fixed seed: sample -> generate ->
   score -> fault-simulate -> NLFCE. Guards the cross-module contract;
   structural assertions only (no golden floats), so legitimate
   heuristic tuning doesn't break it but wiring mistakes do. *)
let test_end_to_end_c17 () =
  let p = Lazy.force c17_pipeline in
  let eq = Pipeline.classify_equivalents ~screen:64 ~seed:5 p in
  let row =
    Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
      ~name:"c17"
  in
  let weights = Experiments.weights_of_table1 row in
  let t2 =
    Experiments.sampling_comparison ~config:tiny_config p ~name:"c17" ~weights
      ~equivalents:eq
  in
  List.iter
    (fun (s : Experiments.strategy_result) ->
      check_bool "sampled 10%" true
        (s.Experiments.sampled_count
        = Mutsamp_sampling.Strategy.sample_size ~rate:0.1 (List.length p.Pipeline.mutants));
      check_bool "ms in range" true
        (s.Experiments.ms.Score.score_percent > 50.
        && s.Experiments.ms.Score.score_percent <= 100.);
      check_bool "nlfce finite" true (Float.is_finite s.Experiments.metric.Nlfce.nlfce);
      check_bool "validation data exists" true (s.Experiments.validation_vectors > 0))
    [ t2.Experiments.random; t2.Experiments.oriented ];
  (* E from the classifier equals c17's known redundancy count at the
     behavioural level (stable: it is a property of the design). *)
  check_bool "equivalents classified" true (List.length eq >= 0)

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_report_tables_render () =
  let p = Lazy.force c17_pipeline in
  let row =
    Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
      ~name:"c17"
  in
  let s1 = Report.table1 [ row ] in
  check_bool "t1 mentions circuit" true (contains s1 "c17");
  check_bool "t1 mentions NLFCE" true (contains s1 "NLFCE");
  let eq = Pipeline.classify_equivalents ~screen:64 ~seed:3 p in
  let t2 =
    Experiments.sampling_comparison ~config:tiny_config p ~name:"c17"
      ~weights:(Experiments.weights_of_table1 row) ~equivalents:eq
  in
  let s2 = Report.table2 [ t2 ] in
  check_bool "t2 mentions strategies" true
    (contains s2 "oriented" && contains s2 "random")

let test_report_determinism () =
  let p = Lazy.force c17_pipeline in
  let run () =
    Report.table1
      [ Experiments.operator_efficiency ~config:tiny_config ~operators:Operator.all p
          ~name:"c17" ]
  in
  Alcotest.(check string) "same output" (run ()) (run ())

let suite =
  [
    ( "core.pipeline",
      [
        Alcotest.test_case "prepare" `Quick test_prepare_populates_everything;
        Alcotest.test_case "stimulus codes" `Quick test_code_of_stimulus_roundtrip;
        Alcotest.test_case "sequence codes" `Quick test_codes_of_sequences_concatenates;
        Alcotest.test_case "malformed stimuli rejected" `Quick test_malformed_stimuli_rejected;
        Alcotest.test_case "fault simulate" `Quick test_fault_simulate_runs;
        Alcotest.test_case "scan codes" `Quick test_scan_codes_layout;
        Alcotest.test_case "equivalents sound" `Quick test_classify_equivalents_sound;
      ] );
    ( "core.experiments",
      [
        Alcotest.test_case "operator efficiency" `Quick test_operator_efficiency_rows;
        Alcotest.test_case "absent operator skipped" `Quick test_operator_efficiency_skips_absent;
        Alcotest.test_case "storeless run leaves hashes unforced" `Quick
          test_storeless_run_leaves_hashes_unforced;
        Alcotest.test_case "weights bounded" `Quick test_weights_positive_and_bounded;
        Alcotest.test_case "average table1" `Quick test_average_table1;
        Alcotest.test_case "sampling comparison" `Quick test_sampling_comparison_structure;
        Alcotest.test_case "atpg effort" `Quick test_atpg_effort_ordering;
        Alcotest.test_case "atpg effort sequential" `Quick test_atpg_effort_sequential_scan;
        Alcotest.test_case "ms vs rate" `Quick test_ms_vs_rate_monotone_tendency;
      ] );
    ( "core.paper_data",
      [
        Alcotest.test_case "shapes" `Quick test_paper_data_shapes;
        Alcotest.test_case "published weights" `Quick test_published_weights;
        Alcotest.test_case "unknown circuit" `Quick test_published_weights_unknown_circuit;
        Alcotest.test_case "ordering predicate" `Quick test_table1_ordering_predicate;
      ] );
    ( "core.end_to_end",
      [ Alcotest.test_case "c17 pinned flow" `Quick test_end_to_end_c17 ] );
    ( "core.report",
      [
        Alcotest.test_case "tables render" `Quick test_report_tables_render;
        Alcotest.test_case "deterministic" `Quick test_report_determinism;
      ] );
  ]
