module Registry = Mutsamp_circuits.Registry
module Netlist = Mutsamp_netlist.Netlist
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Fault = Mutsamp_fault.Fault
module Collapse = Mutsamp_fault.Collapse
module Prpg = Mutsamp_atpg.Prpg
module Scan = Mutsamp_atpg.Scan
module Topoff = Mutsamp_atpg.Topoff
module Operator = Mutsamp_mutation.Operator
module Prng = Mutsamp_util.Prng
module Config = Mutsamp_core.Config
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Report = Mutsamp_core.Report
module Analysis = Mutsamp_analysis
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Json = Mutsamp_obs.Json
module Error = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx

(* --- front-end cache --------------------------------------------------- *)

(* Prepared pipelines (parse, elaborate, synth, collapse, mutants) are
   deterministic per circuit, so the daemon keeps them across requests
   — repeat traffic for a design skips the whole front end. Counters
   are process-global atomics (the daemon resets Metrics per request)
   plus per-request Metrics mirrors. *)
let a_frontend_hits = Atomic.make 0
let a_frontend_misses = Atomic.make 0
let m_frontend_hits = Metrics.counter "serve.frontend_hits"
let m_frontend_misses = Metrics.counter "serve.frontend_misses"

let frontend_hits () = Atomic.get a_frontend_hits
let frontend_misses () = Atomic.get a_frontend_misses

let cache : (string, Pipeline.t) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let entry name =
  match Registry.find name with
  | Some e -> e
  | None ->
    raise (Error.E (Error.Protocol (Printf.sprintf "unknown circuit %S" name)))

(* Single consumer (the worker thread, or the one-shot CLI), so holding
   the mutex across the compute is fine — it only guards the tables. *)
let prepare name =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache name with
      | Some p ->
        ignore (Atomic.fetch_and_add a_frontend_hits 1);
        Metrics.incr m_frontend_hits;
        p
      | None ->
        ignore (Atomic.fetch_and_add a_frontend_misses 1);
        Metrics.incr m_frontend_misses;
        let e = entry name in
        let d =
          Trace.with_span "parse"
            ~attrs:[ ("circuit", e.Registry.name) ]
            (fun () -> e.Registry.design ())
        in
        let p = Pipeline.prepare d in
        Hashtbl.replace cache name p;
        p)

(* The netlist [atpg] runs on (full-scan for a sequential circuit) and
   its collapsed faults, kept per circuit like the pipeline: repeat
   requests hand fault simulation the same netlist value, whose
   compiled program it keeps. *)
let scans : (string, Netlist.t * Fault.t list) Hashtbl.t = Hashtbl.create 8

let scanned name (p : Pipeline.t) =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt scans name with
      | Some s -> s
      | None ->
        let nl =
          if p.Pipeline.sequential then Scan.full_scan p.Pipeline.netlist
          else p.Pipeline.netlist
        in
        let s = (nl, (Collapse.run nl).Collapse.representatives) in
        Hashtbl.replace scans name s;
        s)

(* --- job bodies -------------------------------------------------------- *)

(* Each returns the exact bytes the matching batch subcommand prints to
   stdout — the CLI calls these too, so daemon replies are
   bit-identical to batch output by construction. *)

let faultsim ~ctx ~circuit ~vectors ~lfsr ~seed =
  let e = entry circuit in
  let p = prepare e.Registry.name in
  let bits = Array.length p.Pipeline.netlist.Netlist.input_nets in
  let patterns =
    if lfsr && bits >= 2 && bits <= Prpg.max_lfsr_width then
      Array.map
        (fun code -> Pattern.of_code ~inputs:bits code)
        (Prpg.lfsr_sequence ~width:bits ~seed ~length:vectors)
    else Prpg.uniform_sequence (Prng.create seed) ~bits ~length:vectors
  in
  let r = Pipeline.fault_simulate ~ctx p patterns in
  Printf.sprintf "%s: %d collapsed faults, %d vectors -> %.2f%% coverage (%d detected)\n"
    e.Registry.name r.Fsim.total vectors (Fsim.coverage_percent r) r.Fsim.detected

let atpg ~ctx ~circuit ~generator ~seed =
  let generator =
    match generator with
    | "podem" -> Topoff.Use_podem
    | "sat" -> Topoff.Use_sat
    | other ->
      raise
        (Error.E (Error.Protocol (Printf.sprintf "unknown generator %S" other)))
  in
  let e = entry circuit in
  let p = prepare e.Registry.name in
  let scanned, faults = scanned e.Registry.name p in
  let r = Topoff.run ~generator ~ctx ~seed scanned ~faults ~seed_patterns:[||] in
  Printf.sprintf
    "%s%s: %d faults | random: %d vectors (%d detected) | atpg: %d calls, %d vectors (%d detected) | untestable %d, aborted %d | coverage %.2f%% of testable%s\n"
    e.Registry.name
    (if p.Pipeline.sequential then " (full-scan)" else "")
    r.Topoff.total_faults r.Topoff.random_patterns r.Topoff.random_detected
    r.Topoff.atpg_calls r.Topoff.atpg_patterns r.Topoff.atpg_detected
    r.Topoff.untestable r.Topoff.aborted r.Topoff.final_coverage_percent
    (if r.Topoff.degraded then
       Printf.sprintf " | DEGRADED (random fallback x%d, +%d detected)"
         r.Topoff.degraded_retries r.Topoff.degraded_detected
     else "")

let default_names = function
  | [] -> List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.paper_benchmarks
  | names -> names

let resolve names =
  List.map (fun n -> ((entry n).Registry.name, prepare n)) names

let table1 ~ctx ~circuits ~quick ~seed =
  let config =
    { (if quick then Config.quick else Config.default) with Config.seed }
  in
  let names = default_names circuits in
  let rows =
    List.map
      (fun (name, p) -> Experiments.operator_efficiency_avg ~config ~ctx p ~name)
      (resolve names)
  in
  Report.table1 rows ^ "\n"

let table2 ?equiv_progress ~ctx ~circuits ~quick ~seed ~repetitions () =
  let config =
    { (if quick then Config.quick else Config.default) with Config.seed }
  in
  let names = default_names circuits in
  let rows =
    List.map
      (fun (name, p) ->
        let full =
          Experiments.operator_efficiency_avg ~config ~operators:Operator.all
            ~ctx p ~name
        in
        let weights = Experiments.weights_of_table1 full in
        let equiv_ctx =
          { ctx with
            Ctx.progress =
              (match equiv_progress with
               | None -> None
               | Some f ->
                 Some (fun ~stage:_ ~done_ ~total -> f ~name ~done_ ~total));
          }
        in
        let equivalents =
          Pipeline.classify_equivalents ~screen:config.Config.equivalence_screen
            ~ctx:equiv_ctx ~seed p
        in
        Experiments.sampling_comparison_avg ~config ~repetitions ~ctx p ~name
          ~weights ~equivalents)
      (resolve names)
  in
  Report.table2_average rows ^ "\n"

let lint ~ctx ~circuits ~strict =
  let names = match circuits with [] -> Registry.names () | ns -> ns in
  let opts =
    { Analysis.Engine.waivers = []; strict; check_observability = true }
  in
  let budget = Ctx.budget ctx in
  let diags =
    List.concat_map
      (fun name ->
        (match Budget.check_deadline budget ~stage:Error.Pipeline with
         | Ok () -> ()
         | Error e -> raise (Error.E e));
        let e = entry name in
        Trace.with_span "lint" ~attrs:[ ("circuit", name) ] @@ fun () ->
        let d = e.Registry.design () in
        let dd = Analysis.Engine.lint_design opts ~circuit:name d in
        let nl =
          Trace.with_span "synth" (fun () -> Mutsamp_synth.Flow.synthesize d)
        in
        dd @ Analysis.Engine.lint_netlist opts ~circuit:name nl)
      names
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Analysis.Diag.to_string d);
      Buffer.add_char buf '\n')
    diags;
  let s = Analysis.Engine.summary diags in
  let get k = Option.value ~default:0 (List.assoc_opt k s) in
  Buffer.add_string buf
    (Printf.sprintf
       "%d circuit(s): %d finding(s) — %d error(s), %d warning(s), %d info(s), %d waived\n"
       (List.length names) (get "findings") (get "errors") (get "warnings")
       (get "infos") (get "waived"));
  ( Buffer.contents buf,
    Analysis.Engine.report_section diags,
    Analysis.Engine.error_count ~strict diags )

(* --- report sections shared with the CLI ------------------------------- *)

let exec_section ~jobs_requested ~jobs =
  let hists =
    List.filter_map
      (fun (name, stats) ->
        if String.starts_with ~prefix:"exec." name then
          Some (name, Metrics.stats_to_json stats)
        else None)
      (Metrics.snapshot ()).Metrics.histograms
  in
  Json.Obj
    ([
       ("jobs_requested", Json.Int jobs_requested);
       ("jobs", Json.Int jobs);
       ("cores", Json.Int (Domain.recommended_domain_count ()));
       ("ocaml", Json.String Sys.ocaml_version);
     ]
    @ if hists = [] then [] else [ ("histograms", Json.Obj hists) ])

(* Fault-sim dispatch bumps one fsim.engine.<backend> counter per run;
   a campaign can mix regimes, hence a list. *)
let fsim_section () =
  let prefix = "fsim.engine." in
  let plen = String.length prefix in
  let resolved =
    List.filter_map
      (fun (name, v) ->
        if v > 0 && String.starts_with ~prefix name then
          Some (Json.String (String.sub name plen (String.length name - plen)))
        else None)
      (Metrics.snapshot ()).Metrics.counters
  in
  Json.Obj [ ("resolved", Json.List resolved) ]

let robust_section budget =
  match Degrade.to_json () with
  | Json.Obj fields -> Json.Obj (fields @ [ ("budget", Budget.to_json budget) ])
  | other -> other
