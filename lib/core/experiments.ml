module Prng = Mutsamp_util.Prng
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant
module Vectorgen = Mutsamp_validation.Vectorgen
module Score = Mutsamp_validation.Score
module Strategy = Mutsamp_sampling.Strategy
module Nlfce = Mutsamp_sampling.Nlfce
module Prpg = Mutsamp_atpg.Prpg
module Scan = Mutsamp_atpg.Scan
module Topoff = Mutsamp_atpg.Topoff
module Fault = Mutsamp_fault.Fault
module Collapse = Mutsamp_fault.Collapse
module Netlist = Mutsamp_netlist.Netlist
module Json = Mutsamp_obs.Json
module Store = Mutsamp_store.Store
module Ctx = Mutsamp_exec.Ctx

type operator_row = {
  op : Operator.t;
  mutant_count : int;
  metric : Nlfce.t;
}

type table1_row = { circuit : string; per_operator : operator_row list }

(* --- store (de)serialisation of operator rows -------------------------- *)

let json_of_operator_row row =
  let m = row.metric in
  Json.Obj
    [
      ("op", Json.String (Operator.name row.op));
      ("mutant_count", Json.Int row.mutant_count);
      ("mutation_length", Json.Int m.Nlfce.mutation_length);
      ("mfc", Json.Float m.Nlfce.mfc);
      ("rfc_at_equal_length", Json.Float m.Nlfce.rfc_at_equal_length);
      ("random_length_for_mfc", Json.Int m.Nlfce.random_length_for_mfc);
      ("random_saturated", Json.Bool m.Nlfce.random_saturated);
      ("delta_fc_percent", Json.Float m.Nlfce.delta_fc_percent);
      ("delta_l_percent", Json.Float m.Nlfce.delta_l_percent);
      ("nlfce", Json.Float m.Nlfce.nlfce);
    ]

(* [op] comes from the request, not the payload: the key already names
   the operator, so a payload recorded under the wrong key cannot smuggle
   in a row for a different operator. *)
let operator_row_of_json ~op json =
  let int k = match Json.member k json with Some (Json.Int v) -> Some v | _ -> None in
  let num k =
    match Json.member k json with
    | Some (Json.Float v) -> Some v
    | Some (Json.Int v) -> Some (float_of_int v)
    | _ -> None
  in
  let bool k = match Json.member k json with Some (Json.Bool v) -> Some v | _ -> None in
  match
    ( int "mutant_count", int "mutation_length", num "mfc",
      num "rfc_at_equal_length", int "random_length_for_mfc",
      bool "random_saturated", num "delta_fc_percent", num "delta_l_percent",
      num "nlfce" )
  with
  | ( Some mutant_count, Some mutation_length, Some mfc,
      Some rfc_at_equal_length, Some random_length_for_mfc,
      Some random_saturated, Some delta_fc_percent, Some delta_l_percent,
      Some nlfce ) ->
    Some
      {
        op;
        mutant_count;
        metric =
          {
            Nlfce.mutation_length;
            mfc;
            rfc_at_equal_length;
            random_length_for_mfc;
            random_saturated;
            delta_fc_percent;
            delta_l_percent;
            nlfce;
          };
      }
  | _ -> None

(* Mix a sub-experiment label into the master seed so each use draws an
   independent deterministic stream. *)
let derived_seed base label =
  let h = Hashtbl.hash (base, label) in
  (h land 0x3FFFFFFF) + 1

(* Validation-data generation is the dominant cost of every campaign
   cell; its outcome is pure in (design, mutant subset, vector config)
   — the config carries the derived seed — so it stores under exactly
   those hashes. Degraded generations are returned but never stored. *)
let generate_vectors ~ctx ~vector_config pipeline mutant_subset =
  Store.fetch_or_compute (Ctx.store ctx) ~ns:"vectors"
    ~parts:(fun () ->
      [
        ("design", (Pipeline.hashes pipeline).Cache.design_h);
        ("mutants", Cache.mutants_hash mutant_subset);
        ("config", Cache.vector_config_hash vector_config);
      ])
    ~encode:Cache.outcome_to_json ~decode:Cache.outcome_of_json
    (fun () ->
      Vectorgen.generate ~config:vector_config pipeline.Pipeline.design mutant_subset)

(* Scoring replays the test set over the whole mutant population —
   pure in (design, equivalents, test set). *)
let score_test_set ~ctx pipeline ~equivalents test_set =
  Store.fetch_or_compute (Ctx.store ctx) ~ns:"score"
    ~parts:(fun () ->
      [
        ("design", (Pipeline.hashes pipeline).Cache.design_h);
        ("equivalent", Cache.int_list_hash equivalents);
        ("test_set", Cache.test_set_hash test_set);
      ])
    ~encode:Cache.score_to_json ~decode:Cache.score_of_json
    (fun () ->
      Score.of_test_set pipeline.Pipeline.design pipeline.Pipeline.mutants
        ~equivalent:equivalents test_set)

(* Generate validation data for a mutant subset and fault-simulate both
   it and a pseudo-random baseline of proportional length. *)
let measure_against_random ~ctx (config : Config.t) pipeline ~label mutant_subset =
  let vector_config =
    { config.Config.vector with Vectorgen.seed = derived_seed config.Config.seed label }
  in
  let outcome = generate_vectors ~ctx ~vector_config pipeline mutant_subset in
  let mutation_codes = Pipeline.patterns_of_sequences pipeline outcome.Vectorgen.test_set in
  let random_length =
    max
      (config.Config.random_multiplier * Array.length mutation_codes)
      config.Config.min_random_length
  in
  let bits = Array.length pipeline.Pipeline.netlist.Netlist.input_nets in
  let random_codes =
    Prpg.uniform_sequence
      (Prng.create (derived_seed config.Config.seed (label ^ ":random")))
      ~bits ~length:random_length
  in
  let mutation_report = Pipeline.fault_simulate ~ctx pipeline mutation_codes in
  let random_report = Pipeline.fault_simulate ~ctx pipeline random_codes in
  (outcome, Nlfce.of_reports ~mutation:mutation_report ~random:random_report ())

let paper_operators = [ Operator.LOR; Operator.VR; Operator.CVR; Operator.CR ]

let operator_efficiency ?(config = Config.default) ?(operators = paper_operators)
    ?(ctx = Ctx.default) pipeline ~name =
  (* One campaign cell per operator; results merge in operator order,
     and each cell draws its own derived seed, so the parallel table is
     identical to the sequential one. Whole finished rows store under
     ["t1row"] — a resumed or repeated campaign replays them without
     generating a vector or simulating a fault (the row subsumes the
     finer ["vectors"]/["fsim"] entries, which still serve partial
     reuse when only the row key changes). *)
  let rows =
    Ctx.map_cells ctx operators ~f:(fun op ->
        let subset =
          List.filter
            (fun (m : Mutant.t) -> Operator.equal m.Mutant.op op)
            pipeline.Pipeline.mutants
        in
        if subset = [] then None
        else
          let compute () =
            let label = Printf.sprintf "%s/t1/%s" name (Operator.name op) in
            let _, metric = measure_against_random ~ctx config pipeline ~label subset in
            { op; mutant_count = List.length subset; metric }
          in
          Some
            (Store.fetch_or_compute (Ctx.store ctx) ~ns:"t1row"
               ~parts:(fun () ->
                 [
                   ("design", (Pipeline.hashes pipeline).Cache.design_h);
                   ("circuit", name);
                   ("op", Operator.name op);
                   ("seed", string_of_int config.Config.seed);
                   ("config", Cache.config_hash config);
                 ])
               ~encode:json_of_operator_row
               ~decode:(operator_row_of_json ~op) compute))
  in
  { circuit = name; per_operator = List.filter_map Fun.id rows }

(* Average several table-1 rows (independent seeds) field-wise: the
   per-operator NLFCE of a single run is noisy on small circuits, and
   the sampling weights deserve a stable estimate. *)
let average_table1 rows =
  match rows with
  | [] -> invalid_arg "Experiments.average_table1: no rows"
  | first :: _ ->
    let ops = List.map (fun r -> r.op) first.per_operator in
    let per_operator =
      List.map
        (fun op ->
          let metrics =
            List.filter_map
              (fun row ->
                List.find_opt (fun r -> Operator.equal r.op op) row.per_operator)
              rows
          in
          let mean f = Mutsamp_util.Stats.mean (List.map f metrics) in
          let template = List.hd metrics in
          {
            op;
            mutant_count = template.mutant_count;
            metric =
              {
                template.metric with
                Nlfce.mutation_length =
                  int_of_float (mean (fun r -> float_of_int r.metric.Nlfce.mutation_length));
                mfc = mean (fun r -> r.metric.Nlfce.mfc);
                rfc_at_equal_length = mean (fun r -> r.metric.Nlfce.rfc_at_equal_length);
                delta_fc_percent = mean (fun r -> r.metric.Nlfce.delta_fc_percent);
                delta_l_percent = mean (fun r -> r.metric.Nlfce.delta_l_percent);
                nlfce = mean (fun r -> r.metric.Nlfce.nlfce);
              };
          })
        ops
    in
    { circuit = first.circuit; per_operator }

let operator_efficiency_avg ?(config = Config.default) ?operators ?(repetitions = 3)
    ?(ctx = Ctx.default) pipeline ~name =
  let rows =
    Ctx.map_cells ctx
      (List.init repetitions Fun.id)
      ~f:(fun r ->
        let cfg =
          { config with Config.seed = derived_seed config.Config.seed (Printf.sprintf "%s/t1rep%d" name r) }
        in
        (* Each repetition carries its own derived seed, so its rows land
           under distinct store keys. *)
        operator_efficiency ~config:cfg ?operators ~ctx pipeline ~name)
  in
  average_table1 rows

(* Efficiency-proportional weights with a bounded skew: the best class
   gets 8x the weight of a zero-efficiency class. An unbounded ratio
   would starve whole operator classes and wreck the mutation score the
   strategy must preserve (the paper keeps both). *)
let weights_of_table1 row =
  let positive r = Float.max r.metric.Nlfce.nlfce 0. in
  let best = List.fold_left (fun acc r -> Float.max acc (positive r)) 0. row.per_operator in
  List.map
    (fun r ->
      let w = if best <= 0. then 1. else 1. +. (7. *. positive r /. best) in
      (r.op, w))
    row.per_operator

type strategy_result = {
  strategy : string;
  sampled_count : int;
  ms : Score.t;
  metric : Nlfce.t;
  validation_vectors : int;
}

type table2_row = {
  circuit : string;
  random : strategy_result;
  oriented : strategy_result;
}

(* Sample with one strategy and generate its validation data. *)
let run_strategy_data ~ctx (config : Config.t) pipeline ~name ~strategy ~strategy_name =
  let prng = Prng.create (derived_seed config.Config.seed (name ^ "/sample/" ^ strategy_name)) in
  let sample =
    Strategy.sample prng strategy pipeline.Pipeline.mutants
      ~rate:config.Config.sample_rate
  in
  let vector_config =
    {
      config.Config.vector with
      Vectorgen.seed =
        derived_seed config.Config.seed (Printf.sprintf "%s/t2/%s" name strategy_name);
    }
  in
  let outcome = generate_vectors ~ctx ~vector_config pipeline sample in
  (sample, outcome)

let sampling_comparison ?(config = Config.default) ?(ctx = Ctx.default) pipeline
    ~name ~weights ~equivalents =
  let random_sample, random_outcome =
    run_strategy_data ~ctx config pipeline ~name ~strategy:Strategy.Random_uniform
      ~strategy_name:"random"
  in
  let oriented_sample, oriented_outcome =
    run_strategy_data ~ctx config pipeline ~name
      ~strategy:(Strategy.Operator_weighted weights) ~strategy_name:"oriented"
  in
  let random_codes = Pipeline.patterns_of_sequences pipeline random_outcome.Vectorgen.test_set in
  let oriented_codes =
    Pipeline.patterns_of_sequences pipeline oriented_outcome.Vectorgen.test_set
  in
  (* One shared pseudo-random baseline judges both strategies, sized by
     the longer of the two validation sets. *)
  let baseline_length =
    max
      (config.Config.random_multiplier
      * max (Array.length random_codes) (Array.length oriented_codes))
      config.Config.min_random_length
  in
  let bits = Array.length pipeline.Pipeline.netlist.Netlist.input_nets in
  let baseline =
    Prpg.uniform_sequence
      (Prng.create (derived_seed config.Config.seed (name ^ "/t2/baseline")))
      ~bits ~length:baseline_length
  in
  let baseline_report = Pipeline.fault_simulate ~ctx pipeline baseline in
  let result sample outcome codes strategy_name =
    let metric =
      Nlfce.of_reports
        ~mutation:(Pipeline.fault_simulate ~ctx pipeline codes)
        ~random:baseline_report ()
    in
    let ms = score_test_set ~ctx pipeline ~equivalents outcome.Vectorgen.test_set in
    {
      strategy = strategy_name;
      sampled_count = List.length sample;
      ms;
      metric;
      validation_vectors = outcome.Vectorgen.total_vectors;
    }
  in
  {
    circuit = name;
    random = result random_sample random_outcome random_codes "random";
    oriented = result oriented_sample oriented_outcome oriented_codes "oriented";
  }

type table2_average = {
  circuit : string;
  repetitions : int;
  oriented_ms_mean : float;
  random_ms_mean : float;
  oriented_nlfce_mean : float;
  random_nlfce_mean : float;
  oriented_nlfce_median : float;
  random_nlfce_median : float;
  oriented_ms_wins : int;  (** repetitions where oriented MS >= random MS *)
  oriented_nlfce_wins : int;
  sampled_count : int;
}

let sampling_comparison_avg ?(config = Config.default) ?(repetitions = 5)
    ?(ctx = Ctx.default) pipeline ~name ~weights ~equivalents =
  let runs =
    Ctx.map_cells ctx
      (List.init repetitions Fun.id)
      ~f:(fun r ->
        let cfg = { config with Config.seed = derived_seed config.Config.seed (Printf.sprintf "%s/rep%d" name r) } in
        sampling_comparison ~config:cfg ~ctx pipeline ~name ~weights ~equivalents)
  in
  let mean f = Mutsamp_util.Stats.mean (List.map f runs) in
  let median f = Mutsamp_util.Stats.median (List.map f runs) in
  let wins f = List.length (List.filter f runs) in
  {
    circuit = name;
    repetitions;
    oriented_ms_mean = mean (fun r -> r.oriented.ms.Score.score_percent);
    random_ms_mean = mean (fun r -> r.random.ms.Score.score_percent);
    oriented_nlfce_mean = mean (fun r -> r.oriented.metric.Nlfce.nlfce);
    random_nlfce_mean = mean (fun r -> r.random.metric.Nlfce.nlfce);
    oriented_nlfce_median = median (fun r -> r.oriented.metric.Nlfce.nlfce);
    random_nlfce_median = median (fun r -> r.random.metric.Nlfce.nlfce);
    oriented_ms_wins =
      wins (fun r ->
          r.oriented.ms.Score.score_percent >= r.random.ms.Score.score_percent);
    oriented_nlfce_wins =
      wins (fun r -> r.oriented.metric.Nlfce.nlfce >= r.random.metric.Nlfce.nlfce);
    sampled_count =
      (match runs with r :: _ -> r.oriented.sampled_count | [] -> 0);
  }

type atpg_row = {
  seed_kind : string;
  report : Topoff.report;
}

let atpg_effort ?(config = Config.default) ?(generator = Topoff.Use_podem)
    ?(ctx = Ctx.default) pipeline ~name ~mutation_sequences =
  let scanned =
    if pipeline.Pipeline.sequential then Scan.full_scan pipeline.Pipeline.netlist
    else pipeline.Pipeline.netlist
  in
  let faults = (Collapse.run scanned).Collapse.representatives in
  let mutation_seed = Pipeline.scan_patterns_of_sequences pipeline mutation_sequences in
  let bits = Array.length scanned.Netlist.input_nets in
  let random_seed_patterns =
    Prpg.uniform_sequence
      (Prng.create (derived_seed config.Config.seed (name ^ "/e3/random")))
      ~bits
      ~length:(Array.length mutation_seed)
  in
  (* The three seeding disciplines are independent campaigns — one cell
     each, merged in the fixed none/random/mutation order. Each cell
     hashes the scanned netlist itself, and only when a store is
     attached, so no lazily-computed key is shared across domains. *)
  Ctx.map_cells ctx
    [ ("none", [||]); ("random", random_seed_patterns); ("mutation", mutation_seed) ]
    ~f:(fun (kind, seed_patterns) ->
      let seed = derived_seed config.Config.seed (name ^ "/e3/" ^ kind) in
      let report =
        Store.fetch_or_compute (Ctx.store ctx) ~ns:"atpg"
          ~parts:(fun () ->
            [
              ("netlist", Cache.netlist_hash scanned);
              ("faults", Cache.faults_hash faults);
              ("seed_patterns", Cache.sequence_hash seed_patterns);
              ("seed", string_of_int seed);
              ("generator", Cache.generator_name generator);
            ])
          ~encode:Cache.topoff_report_to_json
          ~decode:Cache.topoff_report_of_json
          (fun () -> Topoff.run ~generator ~ctx ~seed scanned ~faults ~seed_patterns)
      in
      { seed_kind = kind; report })

let ms_vs_rate ?(config = Config.default) ?(ctx = Ctx.default) pipeline ~name
    ~weights ~equivalents ~rates =
  Ctx.map_cells ctx rates ~f:(fun rate ->
      let cfg = { config with Config.sample_rate = rate } in
      let row =
        sampling_comparison ~config:cfg ~ctx pipeline
          ~name:(Printf.sprintf "%s@%.2f" name rate) ~weights ~equivalents
      in
      (rate, row.random.ms.Score.score_percent, row.oriented.ms.Score.score_percent))
