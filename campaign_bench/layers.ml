(* Traced child: per-layer attribution timed from outside the library.

   Each job is rebuilt here from the public calls of the layers it
   crosses (front end, vectorgen, equivalence, scoring, fault sim,
   ATPG), and every such call is timed around its boundary. Nothing in
   the library is instrumented beyond the counters it already keeps,
   which are read from a metrics snapshot. The rendered output must
   equal the untraced child's byte for byte: that is what shows this
   decomposition is the real campaign and not a model of it.

   Two side measurements replay a deterministic prefix of a layer's
   work with metrics suppressed and are excluded from the traced
   campaign wall: the random phase of each vectorgen call, and the
   random screen of each equivalence classification. *)

module Registry = Mutsamp_circuits.Registry
module Check = Mutsamp_hdl.Check
module Stimuli = Mutsamp_hdl.Stimuli
module Flow = Mutsamp_synth.Flow
module Netlist = Mutsamp_netlist.Netlist
module Collapse = Mutsamp_fault.Collapse
module Fsim = Mutsamp_fault.Fsim
module Generate = Mutsamp_mutation.Generate
module Mutant = Mutsamp_mutation.Mutant
module Operator = Mutsamp_mutation.Operator
module Kill = Mutsamp_mutation.Kill
module Vectorgen = Mutsamp_validation.Vectorgen
module Score = Mutsamp_validation.Score
module Strategy = Mutsamp_sampling.Strategy
module Nlfce = Mutsamp_sampling.Nlfce
module Prpg = Mutsamp_atpg.Prpg
module Scan = Mutsamp_atpg.Scan
module Topoff = Mutsamp_atpg.Topoff
module Config = Mutsamp_core.Config
module Cache = Mutsamp_core.Cache
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Report = Mutsamp_core.Report
module Metrics = Mutsamp_obs.Metrics
module Degrade = Mutsamp_robust.Degrade
module Prng = Mutsamp_util.Prng
module Stats = Mutsamp_util.Stats
module Ctx = Mutsamp_exec.Ctx

let now = Unix.gettimeofday
let ctx = Ctx.default

(* --- accounting ------------------------------------------------------ *)

(* Additive quantities, summed by the parent over a run's traced
   children: ["<layer>_s"] seconds, allocation in Mw, and counts. *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 32

let add key v =
  Hashtbl.replace totals key (v +. Option.value ~default:0. (Hashtbl.find_opt totals key))

(* Seconds attributed to layers while the campaign (not the set-up)
   runs, and seconds spent in side measurements. *)
let in_campaign = ref false
let campaign_layer_s = ref 0.
let side_s = ref 0.

let timed layer f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  add (layer ^ "_s") dt;
  if !in_campaign then campaign_layer_s := !campaign_layer_s +. dt;
  r

let alloc_mw () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) /. 1e6

let timed_alloc layer f =
  let a0 = alloc_mw () in
  let r = timed layer f in
  add (layer ^ ".alloc_mw") (alloc_mw () -. a0);
  r

let side layer f =
  let t0 = now () in
  Metrics.with_suppressed f;
  let dt = now () -. t0 in
  add (layer ^ "_s") dt;
  side_s := !side_s +. dt

let glue f = timed "core.glue" f

(* Fault-sim backend(s) each circuit resolved to, read from the
   dispatch counters around its fault-simulating calls. *)
let engine_names = [ "packed"; "event"; "compiled"; "serial" ]
let engines : (string * string) list ref = ref []

let with_engines circuit f =
  let counts () =
    let snap = (Metrics.snapshot ()).Metrics.counters in
    List.map
      (fun e -> Option.value ~default:0 (List.assoc_opt ("fsim.engine." ^ e) snap))
      engine_names
  in
  let before = counts () in
  let r = f () in
  List.iter2
    (fun e (b, a) ->
      if a > b && not (List.mem (circuit, e) !engines) then
        engines := !engines @ [ (circuit, e) ])
    engine_names
    (List.combine before (counts ()));
  r

(* --- layer calls ----------------------------------------------------- *)

let prepare (e : Registry.entry) =
  let design = timed "hdl.elaborate" e.Registry.design in
  let netlist, mapping =
    timed "synth.synthesize" (fun () -> Flow.synthesize_mapped design)
  in
  let faults =
    timed "fault.collapse" (fun () -> (Collapse.run netlist).Collapse.representatives)
  in
  let mutants = timed_alloc "mutation.generate" (fun () -> Generate.all design) in
  add "mutation.mutants" (float_of_int (List.length mutants));
  {
    Pipeline.design;
    netlist;
    mapping;
    faults;
    mutants;
    sequential = not (Check.is_combinational design);
    hashes =
      lazy
        {
          Cache.design_h = Cache.design_hash design;
          netlist_h = Cache.netlist_hash netlist;
          faults_h = Cache.faults_hash faults;
        };
  }

let vectorgen ~(config : Vectorgen.config) (p : Pipeline.t) subset =
  add "validation.vectorgen.calls" 1.;
  let outcome =
    timed_alloc "validation.vectorgen" (fun () ->
        Vectorgen.generate ~config p.Pipeline.design subset)
  in
  add "validation.unknown_mutants" (float_of_int (List.length outcome.Vectorgen.unknown));
  (* The random phase is a deterministic prefix of the generation, so
     the same call without the directed phase and the set cover times
     exactly that phase. *)
  side "validation.vectorgen.random" (fun () ->
      ignore
        (Vectorgen.generate
           ~config:{ config with Vectorgen.directed = false; minimize = false }
           p.Pipeline.design subset));
  outcome

let fault_simulate ~name (p : Pipeline.t) patterns =
  add "fault.fsim.calls" 1.;
  add "fault.fsim.pairs"
    (float_of_int (Array.length patterns * List.length p.Pipeline.faults));
  with_engines name (fun () ->
      timed "fault.fsim" (fun () -> Pipeline.fault_simulate ~ctx p patterns))

let prpg seed ~bits ~length =
  timed "atpg.prpg" (fun () -> Prpg.uniform_sequence (Prng.create seed) ~bits ~length)

let score (p : Pipeline.t) ~equivalents test_set =
  timed "validation.score" (fun () ->
      Score.of_test_set p.Pipeline.design p.Pipeline.mutants ~equivalent:equivalents
        test_set)

let equivalents ~screen ~seed (p : Pipeline.t) =
  let r =
    timed_alloc "core.equiv" (fun () -> Pipeline.classify_equivalents ~screen ~ctx ~seed p)
  in
  (* Phase 1 of the classification, replayed with the same stream. *)
  side "core.equiv.screen" (fun () ->
      let runner = Kill.make p.Pipeline.design p.Pipeline.mutants in
      let prng = Prng.create seed in
      let seq_len = if p.Pipeline.sequential then 16 else 1 in
      let sequences =
        List.init
          (max 1 (screen / seq_len))
          (fun _ -> Stimuli.random_sequence prng p.Pipeline.design seq_len)
      in
      ignore (Kill.killed_set runner ~ctx sequences));
  r

(* --- jobs, rebuilt from the calls above ------------------------------ *)

(* Copy of the private [Experiments.derived_seed]: the rebuilt jobs must
   draw exactly the streams the library's campaign draws. *)
let derived_seed base label =
  let h = Hashtbl.hash (base, label) in
  (h land 0x3FFFFFFF) + 1

(* [Experiments.operator_efficiency]'s default operator set. *)
let paper_operators = [ Operator.LOR; Operator.VR; Operator.CVR; Operator.CR ]

let bits (p : Pipeline.t) = Array.length p.Pipeline.netlist.Netlist.input_nets

let measure_against_random ~(config : Config.t) p ~name ~label subset =
  let vector_config =
    { config.Config.vector with Vectorgen.seed = derived_seed config.Config.seed label }
  in
  let outcome = vectorgen ~config:vector_config p subset in
  let mutation_codes =
    glue (fun () -> Pipeline.patterns_of_sequences p outcome.Vectorgen.test_set)
  in
  let random_codes =
    prpg
      (derived_seed config.Config.seed (label ^ ":random"))
      ~bits:(bits p)
      ~length:
        (max
           (config.Config.random_multiplier * Array.length mutation_codes)
           config.Config.min_random_length)
  in
  let mutation = fault_simulate ~name p mutation_codes in
  let random = fault_simulate ~name p random_codes in
  glue (fun () -> Nlfce.of_reports ~mutation ~random ())

(* [Experiments.operator_efficiency_avg] with its default 3 repetitions. *)
let table1_row ~(config : Config.t) ~operators p ~name =
  let rows =
    List.init 3 (fun r ->
        let config =
          {
            config with
            Config.seed =
              derived_seed config.Config.seed (Printf.sprintf "%s/t1rep%d" name r);
          }
        in
        let per_operator =
          List.filter_map
            (fun op ->
              let subset =
                glue (fun () ->
                    List.filter
                      (fun (m : Mutant.t) -> Operator.equal m.Mutant.op op)
                      p.Pipeline.mutants)
              in
              if subset = [] then None
              else
                let label = Printf.sprintf "%s/t1/%s" name (Operator.name op) in
                let metric = measure_against_random ~config p ~name ~label subset in
                Some { Experiments.op; mutant_count = List.length subset; metric })
            operators
        in
        { Experiments.circuit = name; per_operator })
  in
  glue (fun () -> Experiments.average_table1 rows)

(* [Experiments.sampling_comparison]. *)
let sampling_comparison ~(config : Config.t) p ~name ~weights ~equivalents =
  let strategy_data strategy strategy_name =
    let sample =
      glue (fun () ->
          Strategy.sample
            (Prng.create
               (derived_seed config.Config.seed (name ^ "/sample/" ^ strategy_name)))
            strategy p.Pipeline.mutants ~rate:config.Config.sample_rate)
    in
    let vector_config =
      {
        config.Config.vector with
        Vectorgen.seed =
          derived_seed config.Config.seed (Printf.sprintf "%s/t2/%s" name strategy_name);
      }
    in
    let outcome = vectorgen ~config:vector_config p sample in
    let codes =
      glue (fun () -> Pipeline.patterns_of_sequences p outcome.Vectorgen.test_set)
    in
    (sample, outcome, codes)
  in
  let random_data = strategy_data Strategy.Random_uniform "random" in
  let oriented_data = strategy_data (Strategy.Operator_weighted weights) "oriented" in
  let (_, _, random_codes), (_, _, oriented_codes) = (random_data, oriented_data) in
  let baseline =
    prpg
      (derived_seed config.Config.seed (name ^ "/t2/baseline"))
      ~bits:(bits p)
      ~length:
        (max
           (config.Config.random_multiplier
           * max (Array.length random_codes) (Array.length oriented_codes))
           config.Config.min_random_length)
  in
  let baseline_report = fault_simulate ~name p baseline in
  let result (sample, outcome, codes) strategy =
    let mutation = fault_simulate ~name p codes in
    let metric = glue (fun () -> Nlfce.of_reports ~mutation ~random:baseline_report ()) in
    let ms = score p ~equivalents outcome.Vectorgen.test_set in
    {
      Experiments.strategy;
      sampled_count = List.length sample;
      ms;
      metric;
      validation_vectors = outcome.Vectorgen.total_vectors;
    }
  in
  let random = result random_data "random" in
  let oriented = result oriented_data "oriented" in
  { Experiments.circuit = name; random; oriented }

(* The averaging of [Experiments.sampling_comparison_avg]. *)
let average_table2 ~name ~repetitions (runs : Experiments.table2_row list) =
  let mean f = Stats.mean (List.map f runs) in
  let median f = Stats.median (List.map f runs) in
  let wins f = List.length (List.filter f runs) in
  let ms (r : Experiments.strategy_result) = r.Experiments.ms.Score.score_percent in
  let nlfce (r : Experiments.strategy_result) = r.Experiments.metric.Nlfce.nlfce in
  {
    Experiments.circuit = name;
    repetitions;
    oriented_ms_mean = mean (fun r -> ms r.Experiments.oriented);
    random_ms_mean = mean (fun r -> ms r.Experiments.random);
    oriented_nlfce_mean = mean (fun r -> nlfce r.Experiments.oriented);
    random_nlfce_mean = mean (fun r -> nlfce r.Experiments.random);
    oriented_nlfce_median = median (fun r -> nlfce r.Experiments.oriented);
    random_nlfce_median = median (fun r -> nlfce r.Experiments.random);
    oriented_ms_wins = wins (fun r -> ms r.Experiments.oriented >= ms r.Experiments.random);
    oriented_nlfce_wins =
      wins (fun r -> nlfce r.Experiments.oriented >= nlfce r.Experiments.random);
    sampled_count =
      (match runs with r :: _ -> r.Experiments.oriented.Experiments.sampled_count | [] -> 0);
  }

let config_of ~quick ~seed = { (if quick then Config.quick else Config.default) with Config.seed }

(* [Jobs.table1], [Jobs.table2], [Jobs.faultsim] and [Jobs.atpg]. *)
let run_job prepared ~seed (job : Workload.job) =
  match job with
  | Workload.Table1 { circuits; quick } ->
    let config = config_of ~quick ~seed in
    let rows =
      List.map
        (fun name ->
          table1_row ~config ~operators:paper_operators (prepared name) ~name)
        circuits
    in
    glue (fun () -> Report.table1 rows ^ "\n")
  | Workload.Table2 { circuits; quick; repetitions } ->
    let config = config_of ~quick ~seed in
    let rows =
      List.map
        (fun name ->
          let p = prepared name in
          let full = table1_row ~config ~operators:Operator.all p ~name in
          let weights = glue (fun () -> Experiments.weights_of_table1 full) in
          let equivalents =
            equivalents ~screen:config.Config.equivalence_screen ~seed p
          in
          let runs =
            List.init repetitions (fun r ->
                let config =
                  {
                    config with
                    Config.seed =
                      derived_seed config.Config.seed (Printf.sprintf "%s/rep%d" name r);
                  }
                in
                sampling_comparison ~config p ~name ~weights ~equivalents)
          in
          glue (fun () -> average_table2 ~name ~repetitions runs))
        circuits
    in
    glue (fun () -> Report.table2_average rows ^ "\n")
  | Workload.Faultsim { circuit; vectors } ->
    let p = prepared circuit in
    let patterns = prpg seed ~bits:(bits p) ~length:vectors in
    let r = fault_simulate ~name:circuit p patterns in
    glue (fun () ->
        Printf.sprintf "%s: %d collapsed faults, %d vectors -> %.2f%% coverage (%d detected)\n"
          circuit r.Fsim.total vectors (Fsim.coverage_percent r) r.Fsim.detected)
  | Workload.Atpg { circuit } ->
    let p = prepared circuit in
    let scanned =
      timed "atpg.topoff" (fun () ->
          if p.Pipeline.sequential then Scan.full_scan p.Pipeline.netlist
          else p.Pipeline.netlist)
    in
    let faults =
      timed "fault.collapse" (fun () -> (Collapse.run scanned).Collapse.representatives)
    in
    let r =
      with_engines circuit (fun () ->
          timed "atpg.topoff" (fun () ->
              Topoff.run ~generator:Topoff.Use_podem ~ctx ~seed scanned ~faults
                ~seed_patterns:[||]))
    in
    glue (fun () ->
        Printf.sprintf
          "%s%s: %d faults | random: %d vectors (%d detected) | atpg: %d calls, %d vectors (%d detected) | untestable %d, aborted %d | coverage %.2f%% of testable%s\n"
          circuit
          (if p.Pipeline.sequential then " (full-scan)" else "")
          r.Topoff.total_faults r.Topoff.random_patterns r.Topoff.random_detected
          r.Topoff.atpg_calls r.Topoff.atpg_patterns r.Topoff.atpg_detected
          r.Topoff.untestable r.Topoff.aborted r.Topoff.final_coverage_percent
          (if r.Topoff.degraded then
             Printf.sprintf " | DEGRADED (random fallback x%d, +%d detected)"
               r.Topoff.degraded_retries r.Topoff.degraded_detected
           else ""))

(* Library counters reported as per-layer metrics. *)
let counters =
  [
    "vectorgen.candidates"; "vectorgen.accepted"; "vectorgen.sat_calls";
    "kill.sequences"; "equiv.exact_checks"; "equiv.proven_equivalent";
    "sat.solves"; "sat.conflicts"; "sat.propagations"; "fsim.machine_steps";
    "exec.fsim_machine_steps"; "exec.compile_ms"; "topoff.atpg_calls";
    "podem.backtracks"; "podem.aborted";
  ]

(* Traced child. Returns the output and the child's result fields:
   the untraced child's fields plus the additive layer totals and the
   resolved engines. *)
let child ~(jobs : Workload.job list) ~seed =
  Metrics.set_enabled true;
  let t0 = now () in
  let prepared = Hashtbl.create 4 in
  List.iter
    (fun name ->
      match Registry.find name with
      | Some e -> Hashtbl.replace prepared name (prepare e)
      | None -> failwith ("unknown circuit " ^ name))
    (Workload.circuits jobs);
  let t1 = now () in
  Metrics.reset ();
  in_campaign := true;
  let out = String.concat "" (List.map (run_job (Hashtbl.find prepared) ~seed) jobs) in
  in_campaign := false;
  let t2 = now () in
  let snap = (Metrics.snapshot ()).Metrics.counters in
  List.iter
    (fun c ->
      add c (float_of_int (Option.value ~default:0 (List.assoc_opt c snap))))
    counters;
  add "campaign_layers_s" !campaign_layer_s;
  let fields =
    [
      ("setup_s", t1 -. t0);
      ("campaign_s", t2 -. t1 -. !side_s);
      ("peak_rss_mb", Workload.peak_rss_mb ());
      ("degraded", float_of_int (List.length (Degrade.events ())));
    ]
  in
  (out, fields, List.of_seq (Hashtbl.to_seq totals), !engines)
