(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the repository's extension experiments.

   Sections:
     Table 1 — operator fault-coverage efficiency (paper Table 1)
     Table 2 — test-oriented vs random 10% sampling (paper Table 2)
     E3      — ATPG-effort reduction from validation-data reuse (the
               introduction's claim; the paper shows no table, we do)
     A1      — ablation: MS vs sample rate
     A2      — ablation: serial vs parallel fault simulation
     A3      — ablation: SCOAP-guided vs unguided PODEM

   `dune exec bench/main.exe` runs the full configuration (a few
   minutes); `dune exec bench/main.exe -- --quick` uses reduced budgets
   (tens of seconds). `--report FILE` writes the whole run — per-section
   spans and pipeline counters — as a mutsamp run report (same JSON
   schema as the CLI's --report); `--metrics` dumps the counter snapshot
   to stderr. Any other argument is rejected with exit code 2.

   Campaign performance is measured by campaign_bench, not here. *)

module Registry = Mutsamp_circuits.Registry
module Operator = Mutsamp_mutation.Operator
module Strategy = Mutsamp_sampling.Strategy
module Vectorgen = Mutsamp_validation.Vectorgen
module Fsim = Mutsamp_fault.Fsim
module Netlist = Mutsamp_netlist.Netlist
module Prpg = Mutsamp_atpg.Prpg
module Podem = Mutsamp_atpg.Podem
module Prng = Mutsamp_util.Prng
module Config = Mutsamp_core.Config
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Report = Mutsamp_core.Report
module Paper_data = Mutsamp_core.Paper_data
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Json = Mutsamp_obs.Json
module Runreport = Mutsamp_obs.Runreport
module Budget = Mutsamp_robust.Budget
module Degrade = Mutsamp_robust.Degrade
module Pool = Mutsamp_exec.Pool
module Ctx = Mutsamp_exec.Ctx
module Cliargs = Mutsamp_exec.Cliargs
module Profile = Mutsamp_obs.Profile

(* Cliargs skips what it does not look for, so a stale or misspelt
   flag would otherwise run the whole bench under defaults. *)
let () =
  let joined a =
    String.starts_with ~prefix:"--report=" a
    || String.starts_with ~prefix:"--jobs=" a
    || (String.starts_with ~prefix:"-j" a && String.length a > 2)
  in
  let rec check = function
    | [] -> ()
    | ("--quick" | "--metrics") :: rest -> check rest
    | ("--report" | "--jobs" | "-j") :: _ :: rest -> check rest
    | a :: rest when joined a -> check rest
    | a :: _ ->
      Printf.eprintf
        "bench: unknown argument %s (accepted: --quick, --metrics, --report FILE, --jobs N)\n"
        a;
      exit 2
  in
  check (List.tl (Array.to_list Sys.argv))

let quick = Cliargs.flag [ "--quick" ] Sys.argv
let print_metrics = Cliargs.flag [ "--metrics" ] Sys.argv
let report_path = Cliargs.value_opt ~long:"--report" Sys.argv

(* --jobs N (also -j N, --jobs=N, -jN): worker domains for the sharded
   stages (1 = sequential, 0 = one per core). Results are bit-identical
   at any setting. *)
let jobs = Cliargs.jobs ~default:1 Sys.argv

let bench_pool = if jobs = 1 then None else Some (Pool.create ~domains:jobs)

let bench_ctx =
  match bench_pool with None -> Ctx.default | Some p -> Ctx.with_pool p

let config = if quick then Config.quick else Config.default
let t2_repetitions = if quick then 3 else 20
let t1_repetitions = if quick then 2 else 5

let section title = Printf.printf "\n==== %s ====\n\n%!" title

let timed label f =
  let r, dt = Trace.with_span_timed label f in
  Printf.printf "[%s: %.1fs]\n%!" label dt;
  r

(* Prepared pipelines, shared across sections. *)
let paper_pipelines =
  List.map
    (fun (e : Registry.entry) ->
      (e.Registry.name, lazy (Pipeline.prepare (e.Registry.design ()))))
    Registry.paper_benchmarks

let pipeline name = Lazy.force (List.assoc name paper_pipelines)

(* Full-operator efficiency rows, reused for Table 1 display and the
   Table 2 weights. *)
let full_rows = Hashtbl.create 4

let full_row name =
  match Hashtbl.find_opt full_rows name with
  | Some row -> row
  | None ->
    let row =
      Experiments.operator_efficiency_avg ~config ~operators:Operator.all
        ~repetitions:t1_repetitions ~ctx:bench_ctx (pipeline name) ~name
    in
    Hashtbl.replace full_rows name row;
    row

let equivalents_cache = Hashtbl.create 4

let equivalents name =
  match Hashtbl.find_opt equivalents_cache name with
  | Some eq -> eq
  | None ->
    let eq =
      Pipeline.classify_equivalents ~screen:config.Config.equivalence_screen
        ~ctx:bench_ctx ~seed:config.Config.seed (pipeline name)
    in
    Hashtbl.replace equivalents_cache name eq;
    eq

let circuit_names = List.map fst paper_pipelines

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "Table 1: operator fault-coverage efficiency";
  let rows =
    List.map
      (fun name ->
        timed (name ^ " table1") (fun () ->
            let full = full_row name in
            (* Display the paper's four operators from the full row. *)
            {
              full with
              Experiments.per_operator =
                List.filter
                  (fun (r : Experiments.operator_row) ->
                    List.exists (Operator.equal r.Experiments.op)
                      [ Operator.LOR; Operator.VR; Operator.CVR; Operator.CR ])
                  full.Experiments.per_operator;
            }))
      circuit_names
  in
  print_endline "Measured (this reproduction):";
  print_endline (Report.table1 rows);
  print_endline "";
  print_endline "Published (paper Table 1):";
  print_endline (Report.paper_table1 ());
  List.iter
    (fun (row : Experiments.table1_row) ->
      let measured =
        List.map
          (fun (r : Experiments.operator_row) ->
            (r.Experiments.op, r.Experiments.metric.Mutsamp_sampling.Nlfce.nlfce))
          row.Experiments.per_operator
      in
      Printf.printf "shape[%s]: LOR weakest among paper operators: %b\n"
        row.Experiments.circuit
        (Paper_data.table1_ordering_holds measured row.Experiments.circuit))
    rows

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  section "Table 2: test-oriented vs random 10% mutant sampling";
  let averages =
    List.map
      (fun name ->
        timed (name ^ " table2") (fun () ->
            let weights = Experiments.weights_of_table1 (full_row name) in
            Experiments.sampling_comparison_avg ~config ~repetitions:t2_repetitions
              ~ctx:bench_ctx
              (pipeline name) ~name ~weights ~equivalents:(equivalents name)))
      circuit_names
  in
  Printf.printf "Measured (means over %d repetitions):\n" t2_repetitions;
  print_endline (Report.table2_average averages);
  print_endline "";
  print_endline "Published (paper Table 2):";
  print_endline (Report.paper_table2 ());
  List.iter
    (fun (a : Experiments.table2_average) ->
      Printf.printf
        "shape[%s]: oriented MS >= random MS (mean): %b; oriented NLFCE >= random NLFCE (mean): %b\n"
        a.Experiments.circuit
        (a.Experiments.oriented_ms_mean >= a.Experiments.random_ms_mean)
        (a.Experiments.oriented_nlfce_mean >= a.Experiments.random_nlfce_mean))
    averages

(* Table 2 rerun with the PAPER's published operator-efficiency profile
   as weights: separates "does the oriented strategy transfer" from "do
   our measured efficiencies match the authors'". *)
let run_table2_published_weights () =
  section "Table 2b: oriented sampling with the paper's published weights";
  let averages =
    List.map
      (fun name ->
        timed (name ^ " table2b") (fun () ->
            Experiments.sampling_comparison_avg ~config ~repetitions:t2_repetitions
              ~ctx:bench_ctx
              (pipeline name) ~name
              ~weights:(Paper_data.published_weights name)
              ~equivalents:(equivalents name)))
      circuit_names
  in
  print_endline (Report.table2_average averages)

(* ------------------------------------------------------------------ *)
(* E3: ATPG effort                                                    *)
(* ------------------------------------------------------------------ *)

(* Validation data of the test-oriented 10% sample: what a project
   would actually re-use as a free initial test set. *)
let mutation_seed_sequences name =
  let p = pipeline name in
  let weights = Experiments.weights_of_table1 (full_row name) in
  let prng = Prng.create (config.Config.seed + 77) in
  let sample =
    Strategy.sample prng (Strategy.Operator_weighted weights) p.Pipeline.mutants
      ~rate:config.Config.sample_rate
  in
  let vector_config =
    { config.Config.vector with Vectorgen.seed = config.Config.seed + 78 }
  in
  (Vectorgen.generate ~config:vector_config p.Pipeline.design sample)
    .Vectorgen.test_set

let run_e3 () =
  section "E3: ATPG effort with and without validation-data seeding";
  List.iter
    (fun name ->
      (* The XOR-tree decoder c499 is PODEM's degenerate case; its
         deterministic phase runs on the SAT engine instead. *)
      let generator =
        if name = "c499" then Mutsamp_atpg.Topoff.Use_sat
        else Mutsamp_atpg.Topoff.Use_podem
      in
      let rows =
        timed (name ^ " e3") (fun () ->
            Experiments.atpg_effort ~config ~generator ~ctx:bench_ctx (pipeline name)
              ~name ~mutation_sequences:(mutation_seed_sequences name))
      in
      print_endline (Report.atpg_effort ~circuit:name rows))
    circuit_names

(* ------------------------------------------------------------------ *)
(* A1: MS vs sample rate                                              *)
(* ------------------------------------------------------------------ *)

let run_a1 () =
  section "A1 (ablation): mutation score vs sample rate";
  let rates = [ 0.05; 0.10; 0.20; 0.40 ] in
  List.iter
    (fun name ->
      let rows =
        timed (name ^ " a1") (fun () ->
            Experiments.ms_vs_rate ~config ~ctx:bench_ctx (pipeline name) ~name
              ~weights:(Experiments.weights_of_table1 (full_row name))
              ~equivalents:(equivalents name) ~rates)
      in
      print_endline (Report.ms_vs_rate ~circuit:name rows))
    [ "b01"; "c432" ]

(* ------------------------------------------------------------------ *)
(* A2: serial vs parallel fault simulation                            *)
(* ------------------------------------------------------------------ *)

let run_a2 () =
  section "A2 (ablation): serial vs word-parallel fault simulation";
  (* Fsim.run's backend for each regime — packed parallel-fault on the
     sequential circuits, compiled parallel-pattern on the
     combinational ones — against the serial reference. *)
  List.iter
    (fun name ->
      let p = pipeline name in
      let seq = p.Pipeline.sequential in
      let backend = if seq then "packed" else "compiled" in
      let nl = p.Pipeline.netlist in
      let faults = p.Pipeline.faults in
      let bits = Array.length nl.Netlist.input_nets in
      let sequence =
        Prpg.uniform_sequence
          (Prng.create (if seq then 98 else 99))
          ~bits
          ~length:(if quick then 248 else 992)
      in
      let time label f = Trace.with_span_timed label f in
      let rs, ts =
        time (name ^ " serial") (fun () -> Fsim.serial nl ~faults ~sequence)
      in
      let rp, tp =
        time (name ^ " " ^ backend) (fun () -> Fsim.run nl ~faults ~sequence)
      in
      Printf.printf
        "%s (%s): %d faults, %d %s | %s %.3fs, serial %.3fs (speedup %.1fx), coverage equal: %b\n%!"
        name
        (if seq then "sequential" else "combinational")
        (List.length faults) (Array.length sequence)
        (if seq then "cycles" else "patterns")
        backend tp ts
        (ts /. Float.max tp 1e-9)
        (Fsim.coverage_percent rp = Fsim.coverage_percent rs))
    [ "b01"; "b03"; "c432"; "c499" ]

(* ------------------------------------------------------------------ *)
(* A3: SCOAP guidance in PODEM                                        *)
(* ------------------------------------------------------------------ *)

let run_a3 () =
  section "A3 (ablation): SCOAP-guided vs unguided PODEM";
  List.iter
    (fun name ->
      let p = pipeline name in
      if not p.Pipeline.sequential then begin
        let nl = p.Pipeline.netlist in
        let run guided =
          List.fold_left
            (fun (bt, impl, aborted) f ->
              match Podem.find_test ~backtrack_limit:2000 ~guided nl f with
              | Ok (_, stats) ->
                (bt + stats.Podem.backtracks, impl + stats.Podem.implications, aborted)
              | Error _ ->
                (* search hit the backtrack limit; charge the limit *)
                (bt + 2000, impl, aborted + 1))
            (0, 0, 0) p.Pipeline.faults
        in
        let gb, gi, ga = run true in
        let ub, ui, ua = run false in
        Printf.printf
          "%s: guided %d backtracks / %d implications / %d aborts | unguided %d / %d / %d\n%!"
          name gb gi ga ub ui ua
      end)
    [ "c432" ]

let () =
  Printf.printf "mutsamp bench harness (%s config, seed %d)\n"
    (if quick then "quick" else "default")
    config.Config.seed;
  (* Section spans are coarse enough to trace unconditionally; counters
     only when someone will read them. *)
  Trace.set_enabled true;
  Trace.reset ();
  if print_metrics || report_path <> None then Metrics.set_enabled true;
  Trace.with_span "bench" (fun () ->
      run_table1 ();
      run_table2 ();
      run_table2_published_weights ();
      run_e3 ();
      run_a1 ();
      run_a2 ();
      run_a3 ());
  if print_metrics then Format.eprintf "%a@?" Metrics.pp (Metrics.snapshot ());
  Option.iter
    (fun path ->
      let extra =
        [
          (* The robust section plus the robust.* counters in the
             metrics snapshot record whether any stage degraded
             mid-bench — a degraded run is not comparable to an exact
             one. *)
          ( "robust",
            match Degrade.to_json () with
            | Json.Obj fields ->
              Json.Obj (fields @ [ ("budget", Budget.to_json (Budget.ambient ())) ])
            | other -> other );
          ("profile", Profile.to_json (Profile.current ()));
        ]
      in
      let report =
        Runreport.make ~command:"bench" ~circuits:circuit_names
          ~config:(Config.to_json config) ~seed:config.Config.seed ~extra
          ~spans:(Trace.roots ()) ~metrics:(Metrics.snapshot ()) ()
      in
      try
        Runreport.write_file path report;
        Printf.printf "run report written to %s\n" path
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write report: %s\n" msg;
        exit 1)
    report_path;
  (match bench_pool with None -> () | Some p -> Pool.shutdown p);
  print_endline "\nbench: done"
