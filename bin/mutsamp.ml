(* mutsamp — command-line front end.

   Subcommands: list, show, mutants, generate, faultsim, atpg, dot,
   table1, table2, e3. Run `mutsamp --help` or `mutsamp CMD --help`. *)

open Cmdliner

module Registry = Mutsamp_circuits.Registry
module Pretty = Mutsamp_hdl.Pretty
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant
module Generate = Mutsamp_mutation.Generate
module Netlist = Mutsamp_netlist.Netlist
module Stats = Mutsamp_netlist.Stats
module Dot = Mutsamp_netlist.Dot
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Collapse = Mutsamp_fault.Collapse
module Prpg = Mutsamp_atpg.Prpg
module Scan = Mutsamp_atpg.Scan
module Topoff = Mutsamp_atpg.Topoff
module Vectorgen = Mutsamp_validation.Vectorgen
module Score = Mutsamp_validation.Score
module Strategy = Mutsamp_sampling.Strategy
module Prng = Mutsamp_util.Prng
module Table = Mutsamp_util.Table
module Config = Mutsamp_core.Config
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Report = Mutsamp_core.Report
module Analysis = Mutsamp_analysis
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Runreport = Mutsamp_obs.Runreport
module Json = Mutsamp_obs.Json
module Profile = Mutsamp_obs.Profile
module Traceout = Mutsamp_obs.Traceout
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Atomicio = Mutsamp_robust.Atomicio
module Store = Mutsamp_store.Store
module Pool = Mutsamp_exec.Pool
module Ctx = Mutsamp_exec.Ctx
module Retry = Mutsamp_robust.Retry
module Sjobs = Mutsamp_serve.Jobs
module Sserver = Mutsamp_serve.Server
module Sclient = Mutsamp_serve.Client
module Sprotocol = Mutsamp_serve.Protocol

let find_circuit name =
  match Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (`Msg
        (Printf.sprintf "unknown circuit %S (try: %s)" name
           (String.concat ", " (Registry.names ()))))

let circuit_arg =
  let parse s = find_circuit s in
  let print fmt (e : Registry.entry) = Format.pp_print_string fmt e.Registry.name in
  Arg.conv (parse, print)

let circuit_pos =
  Arg.(required & pos 0 (some circuit_arg) None & info [] ~docv:"CIRCUIT")

let seed_flag =
  Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"N" ~doc:"Master random seed.")

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced experiment budgets.")

let config_of ~quick ~seed =
  let base = if quick then Config.quick else Config.default in
  { base with Config.seed }

(* ------------------------------------------------------------------ *)
(* observability + robustness flags (shared by every subcommand)      *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  trace : bool;
  metrics : bool;
  profile : bool;
  report : string option;
  trace_out : string option;
  metrics_out : string option;
  deadline_ms : int option;
  sat_conflicts : int option;
  podem_backtracks : int option;
  fsim_pairs : int option;
  chaos : string list;
  chaos_seed : int;
  jobs : int;
  store : string option;
}

let obs_term =
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the span timing tree to stderr when the command finishes.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the counter/histogram snapshot to stderr when the command finishes.")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print a flat self-time profile (per span name: count, total, \
                   self, alloc) to stderr, and add a \"profile\" section to the \
                   report when one is written.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write a machine-readable JSON run report to FILE.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the span tree as Chrome trace-event JSON to FILE \
                   (loadable in ui.perfetto.dev), one track per worker domain.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the counter/histogram snapshot in Prometheus text \
                   exposition format to FILE.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Wall-clock budget; past it the stages degrade instead of running on.")
  in
  let sat_conflicts =
    Arg.(value & opt (some int) None
         & info [ "sat-conflicts" ] ~docv:"N"
             ~doc:"Total SAT conflict budget across every solve.")
  in
  let podem_backtracks =
    Arg.(value & opt (some int) None
         & info [ "podem-backtracks" ] ~docv:"N"
             ~doc:"Total PODEM backtrack budget across every search.")
  in
  let fsim_pairs =
    Arg.(value & opt (some int) None
         & info [ "fsim-pairs" ] ~docv:"N"
             ~doc:"Total fault-simulation budget in pattern-times-fault pairs.")
  in
  let chaos =
    Arg.(value & opt_all string []
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Arm the fault-injection harness: POINT:ACTION[@AFTER], e.g. \
                   sat:timeout, report:truncate=16, podem:exn@3. Repeatable.")
  in
  let chaos_seed =
    Arg.(value & opt int 2005
         & info [ "chaos-seed" ] ~docv:"N"
             ~doc:"Seed for probabilistic chaos armings.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for sharded stages. 1 (the default) keeps \
                   every stage on the sequential path; 0 means one domain per \
                   available core. Results are bit-identical at any setting.")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Campaign store directory (created if missing): fault-sim \
                   reports, validation vectors, scores and finished campaign \
                   rows are persisted there keyed by content hashes, and an \
                   unchanged re-run replays them bit-identically instead of \
                   recomputing. See docs/STORE.md.")
  in
  Term.(const (fun trace metrics profile report trace_out metrics_out deadline_ms
                   sat_conflicts podem_backtracks fsim_pairs chaos chaos_seed jobs
                   store ->
            { trace; metrics; profile; report; trace_out; metrics_out;
              deadline_ms; sat_conflicts;
              podem_backtracks; fsim_pairs; chaos; chaos_seed; jobs; store })
        $ trace $ metrics $ profile $ report $ trace_out $ metrics_out
        $ deadline_ms $ sat_conflicts
        $ podem_backtracks $ fsim_pairs $ chaos $ chaos_seed $ jobs $ store)

(* Run a subcommand body under a root span with the ambient budget and
   chaos armings installed; afterwards render whatever the flags asked
   for. Typed errors escaping the body (and injected chaos exceptions)
   become a one-line message and a per-class exit code — the report, if
   requested, is still written first, recording the partial run.
   Without flags the instrumentation stays disabled and the wrapper is
   free. The body receives the run context: the --jobs pool (shut down
   after the body, even on typed errors) and the ambient budget. *)
let with_obs obs ~command ?(circuits = []) ?config ?seed
    ?(sections = fun () -> []) f =
  let any =
    obs.trace || obs.metrics || obs.profile || obs.report <> None
    || obs.trace_out <> None || obs.metrics_out <> None
  in
  if any then begin
    Trace.set_enabled true;
    Trace.reset ();
    Metrics.set_enabled true;
    Metrics.reset ()
  end;
  let budget =
    match (obs.deadline_ms, obs.sat_conflicts, obs.podem_backtracks, obs.fsim_pairs) with
    | None, None, None, None -> Budget.unlimited
    | deadline_ms, sat_conflicts, podem_backtracks, fsim_pairs ->
      Budget.create ?deadline_ms ?sat_conflicts ?podem_backtracks ?fsim_pairs ()
  in
  Budget.set_ambient budget;
  Degrade.reset ();
  Chaos.init ~seed:obs.chaos_seed ();
  Chaos.disarm_all ();
  List.iter
    (fun spec ->
      match Chaos.parse_spec spec with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "mutsamp: bad --chaos spec: %s\n" msg;
        exit 64)
    obs.chaos;
  let store =
    match obs.store with
    | None -> None
    | Some dir -> (
      match Store.open_dir dir with
      | Ok s ->
        Store.reset_counters ();
        Some s
      | Error e ->
        Printf.eprintf "mutsamp: --store %s: %s\n" dir (Rerror.to_string e);
        exit (Rerror.exit_code e))
  in
  let pool = if obs.jobs = 1 then None else Some (Pool.create ~domains:obs.jobs) in
  let ctx = match pool with None -> Ctx.default | Some p -> Ctx.with_pool p in
  let ctx = { ctx with Ctx.store } in
  let result =
    try Ok (Trace.with_span command (fun () -> f ctx)) with
    | Rerror.E e -> Error e
    | Chaos.Injected _ -> Error (Rerror.Injected Rerror.Pipeline)
    | Mutsamp_netlist.Benchfmt.Parse_error msg
    | Mutsamp_hdl.Parser.Parse_error msg
    | Mutsamp_hdl.Lexer.Lex_error msg ->
      Error (Rerror.Parse_error { loc = { Rerror.file = None; line = None }; msg })
  in
  (match pool with None -> () | Some p -> Pool.shutdown p);
  let write_aux what path contents =
    match Atomicio.write_file path contents with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "mutsamp: cannot write %s: %s\n" what (Rerror.to_string e);
      exit (Rerror.exit_code e)
  in
  if obs.trace then Trace.print stderr;
  if obs.metrics then Format.eprintf "%a@?" Metrics.pp (Metrics.snapshot ());
  if obs.profile then Profile.print stderr (Profile.current ());
  (match obs.trace_out with
   | None -> ()
   | Some path -> write_aux "trace" path (Traceout.current ()));
  (match obs.metrics_out with
   | None -> ()
   | Some path ->
     write_aux "metrics" path (Metrics.to_prometheus (Metrics.snapshot ())));
  (match obs.report with
   | None -> ()
   | Some path ->
     let json =
       let profile_section =
         if obs.profile then [ ("profile", Profile.to_json (Profile.current ())) ]
         else []
       in
       Runreport.make ~command ~circuits ?config ?seed
         ~extra:
           (( "exec",
              Sjobs.exec_section ~jobs_requested:obs.jobs
                ~jobs:(match pool with None -> 1 | Some p -> Pool.size p) )
            :: ("fsim", Sjobs.fsim_section ())
            :: ("robust", Sjobs.robust_section budget)
            :: ("store", Store.report_section store)
            :: (profile_section @ sections ()))
         ~spans:(Trace.roots ()) ~metrics:(Metrics.snapshot ()) ()
     in
     write_aux "report" path (Json.to_string json));
  match result with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "mutsamp: %s\n" (Rerror.to_string e);
    exit (Rerror.exit_code e)

(* Parsing/elaboration is a phase worth seeing in traces. *)
let design_of (e : Registry.entry) =
  Trace.with_span "parse" ~attrs:[ ("circuit", e.Registry.name) ] (fun () ->
      e.Registry.design ())

(* Carriage-return progress line for the long serial phases. *)
let progress_line label ~done_ ~total =
  if total > 0 then begin
    Printf.eprintf "\r%s: %d/%d%!" label done_ total;
    if done_ = total then prerr_newline ()
  end

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run obs =
    with_obs obs ~command:"list" @@ fun _ctx ->
    let t = Table.create [ "Name"; "Kind"; "Paper"; "PIs"; "POs"; "FFs"; "Gates"; "Description" ] in
    List.iter
      (fun (e : Registry.entry) ->
        let d = e.Registry.design () in
        let nl = Mutsamp_synth.Flow.synthesize d in
        let s = Stats.compute nl in
        Table.add_row t
          [
            e.Registry.name;
            (match e.Registry.kind with
             | Registry.Sequential -> "seq"
             | Registry.Combinational -> "comb");
            (if e.Registry.in_paper then "yes" else "no");
            string_of_int s.Stats.primary_inputs;
            string_of_int s.Stats.primary_outputs;
            string_of_int s.Stats.flip_flops;
            string_of_int s.Stats.logic_gates;
            e.Registry.description;
          ])
      Registry.all;
    Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark circuits.")
    Term.(const run $ obs_term)

(* ------------------------------------------------------------------ *)
(* show                                                               *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run obs (e : Registry.entry) =
    with_obs obs ~command:"show" ~circuits:[ e.Registry.name ] @@ fun _ctx ->
    let d = design_of e in
    print_string (Pretty.design d);
    let nl = Mutsamp_synth.Flow.synthesize d in
    Printf.printf "\n-- synthesised: %s\n" (Stats.to_string (Stats.compute nl))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a circuit's behavioural source and netlist stats.")
    Term.(const run $ obs_term $ circuit_pos)

(* ------------------------------------------------------------------ *)
(* mutants                                                            *)
(* ------------------------------------------------------------------ *)

let mutants_cmd =
  let operator =
    Arg.(value & opt (some string) None
         & info [ "operator" ] ~docv:"OP" ~doc:"Show only this operator's mutants.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"List every mutant.")
  in
  let run obs (e : Registry.entry) operator verbose =
    with_obs obs ~command:"mutants" ~circuits:[ e.Registry.name ] @@ fun _ctx ->
    let d = design_of e in
    let ms = Trace.with_span "mutants" (fun () -> Generate.all d) in
    match operator with
    | Some opname ->
      (match Operator.of_string opname with
       | None -> prerr_endline ("unknown operator " ^ opname); exit 1
       | Some op ->
         let subset = List.filter (fun (m : Mutant.t) -> Operator.equal m.op op) ms in
         Printf.printf "%s: %d %s mutants\n" e.Registry.name (List.length subset)
           (Operator.name op);
         if verbose then List.iter (fun m -> print_endline ("  " ^ Mutant.to_string m)) subset)
    | None ->
      Printf.printf "%s: %d mutants\n" e.Registry.name (List.length ms);
      List.iter
        (fun (op, n) -> if n > 0 then Printf.printf "  %-4s %d\n" (Operator.name op) n)
        (Generate.count_by_operator ms);
      if verbose then List.iter (fun m -> print_endline ("  " ^ Mutant.to_string m)) ms
  in
  Cmd.v
    (Cmd.info "mutants" ~doc:"Enumerate the mutants of a circuit.")
    Term.(const run $ obs_term $ circuit_pos $ operator $ verbose)

(* ------------------------------------------------------------------ *)
(* generate                                                           *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let rate =
    Arg.(value & opt float 1.0
         & info [ "rate" ] ~docv:"R" ~doc:"Mutant sampling rate in (0,1].")
  in
  let triage =
    Arg.(value & flag
         & info [ "triage" ]
             ~doc:"Statically discard stillborn and duplicate mutants before \
                   sampling; stillborns feed the E term of the score.")
  in
  let run obs (e : Registry.entry) rate triage seed =
    with_obs obs ~command:"generate" ~circuits:[ e.Registry.name ] ~seed @@ fun _ctx ->
    let d = design_of e in
    let p = Pipeline.prepare d in
    (* Optional static triage: sample only from the kept mutants, and
       count the statically-proven-equivalent stillborns into E. The
       score denominator still spans the full population, so triage
       changes the effort, never the reported MS semantics. *)
    let population, equivalent_idx =
      if not triage then (p.Pipeline.mutants, [])
      else begin
        let t =
          Trace.with_span "triage" (fun () ->
              Analysis.Triage.run d p.Pipeline.mutants)
        in
        Printf.printf "triage: %d stillborn, %d duplicates discarded; %d of %d kept\n"
          t.Analysis.Triage.stillborn t.Analysis.Triage.duplicates
          (List.length t.Analysis.Triage.kept)
          (List.length p.Pipeline.mutants);
        List.iter
          (fun (op, n) -> Printf.printf "  %-4s %d discarded\n" (Operator.name op) n)
          t.Analysis.Triage.discards_by_op;
        let equivalent_idx =
          List.concat
            (List.mapi
               (fun i (_, v) ->
                 match v with Analysis.Triage.Stillborn -> [ i ] | _ -> [])
               t.Analysis.Triage.verdicts)
        in
        (t.Analysis.Triage.kept, equivalent_idx)
      end
    in
    let prng = Prng.create seed in
    let sample =
      if rate >= 1.0 then population
      else Strategy.sample prng Strategy.Random_uniform population ~rate
    in
    let config = { Vectorgen.default_config with Vectorgen.seed } in
    let outcome = Vectorgen.generate ~config d sample in
    Printf.printf "%s: %d mutants targeted, %d sequences / %d vectors generated\n"
      e.Registry.name (List.length sample)
      (List.length outcome.Vectorgen.test_set)
      outcome.Vectorgen.total_vectors;
    Printf.printf "killed %d, equivalent %d, unknown %d\n"
      (List.length outcome.Vectorgen.killed)
      (List.length outcome.Vectorgen.equivalent)
      (List.length outcome.Vectorgen.unknown);
    let ms =
      Score.of_test_set d p.Pipeline.mutants ~equivalent:equivalent_idx
        outcome.Vectorgen.test_set
    in
    Printf.printf "%s (over the full population, E %s)\n" (Score.to_string ms)
      (if triage then "from static triage" else "not classified")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate mutation-adequate validation data for a circuit.")
    Term.(const run $ obs_term $ circuit_pos $ rate $ triage $ seed_flag)

(* ------------------------------------------------------------------ *)
(* faultsim                                                           *)
(* ------------------------------------------------------------------ *)

let faultsim_cmd =
  let length =
    Arg.(value & opt int 256
         & info [ "vectors"; "n" ] ~docv:"N" ~doc:"Number of pseudo-random vectors.")
  in
  let lfsr = Arg.(value & flag & info [ "lfsr" ] ~doc:"Use an LFSR instead of uniform codes.") in
  let run obs (e : Registry.entry) length lfsr seed =
    (* Body shared with the service daemon (Mutsamp_serve.Jobs), so the
       two outputs are bit-identical by construction. *)
    with_obs obs ~command:"faultsim" ~circuits:[ e.Registry.name ] ~seed @@ fun ctx ->
    print_string
      (Sjobs.faultsim ~ctx ~circuit:e.Registry.name ~vectors:length ~lfsr ~seed)
  in
  Cmd.v
    (Cmd.info "faultsim" ~doc:"Stuck-at fault simulation with pseudo-random vectors.")
    Term.(const run $ obs_term $ circuit_pos $ length $ lfsr $ seed_flag)

(* ------------------------------------------------------------------ *)
(* atpg                                                               *)
(* ------------------------------------------------------------------ *)

let atpg_cmd =
  let generator =
    Arg.(value & opt (enum [ ("podem", "podem"); ("sat", "sat") ]) "podem"
         & info [ "generator" ] ~docv:"GEN"
             ~doc:"Deterministic test generator: podem or sat.")
  in
  let run obs (e : Registry.entry) generator seed =
    (* Shared with the daemon — see faultsim_cmd. *)
    with_obs obs ~command:"atpg" ~circuits:[ e.Registry.name ] ~seed @@ fun ctx ->
    print_string (Sjobs.atpg ~ctx ~circuit:e.Registry.name ~generator ~seed)
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Random + deterministic test generation to full coverage.")
    Term.(const run $ obs_term $ circuit_pos $ generator $ seed_flag)

(* ------------------------------------------------------------------ *)
(* dot                                                                *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run obs (e : Registry.entry) output =
    with_obs obs ~command:"dot" ~circuits:[ e.Registry.name ] @@ fun _ctx ->
    let nl = Mutsamp_synth.Flow.synthesize (design_of e) in
    match output with
    | Some path -> Dot.write_file path nl
    | None -> print_string (Dot.of_netlist nl)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the synthesised netlist as Graphviz.")
    Term.(const run $ obs_term $ circuit_pos $ output)

(* ------------------------------------------------------------------ *)
(* export / import (.bench)                                           *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run obs (e : Registry.entry) output =
    with_obs obs ~command:"export" ~circuits:[ e.Registry.name ] @@ fun _ctx ->
    let nl = Mutsamp_synth.Flow.synthesize (design_of e) in
    match output with
    | Some path -> Mutsamp_netlist.Benchfmt.write_file path nl
    | None -> print_string (Mutsamp_netlist.Benchfmt.to_string nl)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the synthesised netlist in ISCAS .bench format.")
    Term.(const run $ obs_term $ circuit_pos $ output)

let import_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let vectors =
    Arg.(value & opt int 0
         & info [ "faultsim" ] ~docv:"N"
             ~doc:"Also fault-simulate N pseudo-random vectors.")
  in
  let run obs path vectors seed =
    with_obs obs ~command:"import" ~seed @@ fun ctx ->
    let nl =
      Trace.with_span "parse" ~attrs:[ ("file", path) ] (fun () ->
          match Mutsamp_netlist.Benchfmt.read_file_result ~name:path path with
          | Ok nl -> nl
          | Error e -> raise (Rerror.E e))
    in
    Printf.printf "%s: %s\n" path (Stats.to_string (Stats.compute nl));
    if vectors > 0 then begin
      let faults = (Collapse.run nl).Collapse.representatives in
      let bits = Array.length nl.Netlist.input_nets in
      let patterns = Prpg.uniform_sequence (Prng.create seed) ~bits ~length:vectors in
      let r =
        Trace.with_span "fsim" @@ fun () ->
        if Netlist.num_dffs nl = 0 then
          (* Cone-keyed path: with --store, unchanged output cones of an
             edited netlist replay from cache (see docs/STORE.md). *)
          Pipeline.fault_simulate_patterns ~ctx nl ~faults ~patterns
        else
          let ctx =
            { ctx with
              Ctx.progress =
                Some (fun ~stage ~done_ ~total -> progress_line stage ~done_ ~total);
            }
          in
          Fsim.run ~ctx nl ~faults ~sequence:patterns
      in
      Printf.printf "%d collapsed faults, %d vectors -> %.2f%% coverage\n" r.Fsim.total
        vectors (Fsim.coverage_percent r)
    end
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Read an ISCAS .bench netlist; print stats, optionally fault-simulate.")
    Term.(const run $ obs_term $ file $ vectors $ seed_flag)

(* ------------------------------------------------------------------ *)
(* diagnose                                                           *)
(* ------------------------------------------------------------------ *)

let diagnose_cmd =
  let fault_index =
    Arg.(value & opt (some int) None
         & info [ "inject" ] ~docv:"K"
             ~doc:"Index of the fault to inject as the hidden defect (default: random).")
  in
  let vectors =
    Arg.(value & opt int 16 & info [ "vectors"; "n" ] ~docv:"N" ~doc:"Test patterns applied.")
  in
  let run obs (e : Registry.entry) fault_index vectors seed =
    with_obs obs ~command:"diagnose" ~circuits:[ e.Registry.name ] ~seed @@ fun _ctx ->
    let p = Pipeline.prepare (design_of e) in
    if p.Pipeline.sequential then begin
      prerr_endline "diagnose: combinational circuits only (try c17/c432/c499)";
      exit 1
    end;
    let nl = p.Pipeline.netlist in
    let faults = Array.of_list p.Pipeline.faults in
    let prng = Prng.create seed in
    let injected =
      match fault_index with
      | Some k when k >= 0 && k < Array.length faults -> faults.(k)
      | Some _ -> prerr_endline "diagnose: fault index out of range"; exit 1
      | None -> faults.(Prng.int prng (Array.length faults))
    in
    let bits = Array.length nl.Netlist.input_nets in
    let random_patterns = Prpg.uniform_sequence prng ~bits ~length:(max 0 (vectors - 1)) in
    (* Make sure at least one pattern excites the defect, else every
       quiet fault would "explain" the observations. *)
    let patterns =
      match Mutsamp_atpg.Podem.find_test ~budget:Mutsamp_robust.Budget.unlimited nl injected with
      | Ok (Some p, _) -> Array.append [| p |] random_patterns
      | Ok (None, _) | Error _ -> random_patterns
    in
    let observations =
      Array.to_list
        (Array.map
           (fun pat ->
             {
               Mutsamp_fault.Diagnose.pattern = pat;
               response = Mutsamp_fault.Diagnose.simulate_response nl (Some injected) pat;
             })
           patterns)
    in
    let suspects =
      Mutsamp_fault.Diagnose.perfect_matches nl
        ~candidates:(Array.to_list faults) ~observations
    in
    Printf.printf "injected defect: %s\n" (Mutsamp_fault.Fault.to_string injected);
    Printf.printf "%d patterns observed; %d candidate(s) explain everything:\n"
      vectors (List.length suspects);
    List.iter
      (fun f -> Printf.printf "  %s\n" (Mutsamp_fault.Fault.to_string f))
      suspects;
    if not (List.exists (Mutsamp_fault.Fault.equal injected) suspects) then begin
      prerr_endline "BUG: injected fault not among suspects";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Inject a hidden stuck-at defect and locate it from observed responses.")
    Term.(const run $ obs_term $ circuit_pos $ fault_index $ vectors $ seed_flag)

(* ------------------------------------------------------------------ *)
(* seqatpg / bist / sync                                              *)
(* ------------------------------------------------------------------ *)

let seqatpg_cmd =
  let max_frames =
    Arg.(value & opt int 10 & info [ "frames" ] ~docv:"K" ~doc:"Frame budget.")
  in
  let run obs (e : Registry.entry) max_frames =
    with_obs obs ~command:"seqatpg" ~circuits:[ e.Registry.name ] @@ fun _ctx ->
    let p = Pipeline.prepare (design_of e) in
    let nl = p.Pipeline.netlist in
    let (sequences, undetected), elapsed =
      Trace.with_span_timed "seqatpg" (fun () ->
          Mutsamp_atpg.Seqatpg.generate_set ~max_frames nl ~faults:p.Pipeline.faults)
    in
    Printf.printf
      "%s: %d faults -> %d functional sequences (%d cycles total), %d without a test within %d frames (%.2fs)\n"
      e.Registry.name
      (List.length p.Pipeline.faults)
      (List.length sequences)
      (List.fold_left (fun acc s -> acc + Array.length s) 0 sequences)
      (List.length undetected) max_frames elapsed
  in
  Cmd.v
    (Cmd.info "seqatpg"
       ~doc:"Generate functional test sequences by time-frame expansion.")
    Term.(const run $ obs_term $ circuit_pos $ max_frames)

let bist_cmd =
  let length =
    Arg.(value & opt int 256 & info [ "vectors"; "n" ] ~docv:"N" ~doc:"LFSR patterns.")
  in
  let run obs (e : Registry.entry) length seed =
    with_obs obs ~command:"bist" ~circuits:[ e.Registry.name ] ~seed @@ fun _ctx ->
    let p = Pipeline.prepare (design_of e) in
    let nl =
      if p.Pipeline.sequential then Scan.full_scan p.Pipeline.netlist
      else p.Pipeline.netlist
    in
    let faults = (Collapse.run nl).Collapse.representatives in
    let r = Trace.with_span "bist" (fun () -> Mutsamp_atpg.Bist.run nl ~faults ~seed ~length) in
    Printf.printf
      "%s%s: signature %#x | %d/%d detected by signature, %d by comparison, %d aliased\n"
      e.Registry.name
      (if p.Pipeline.sequential then " (full-scan)" else "")
      r.Mutsamp_atpg.Bist.good_signature r.Mutsamp_atpg.Bist.signature_detected
      r.Mutsamp_atpg.Bist.total_faults r.Mutsamp_atpg.Bist.comparison_detected
      r.Mutsamp_atpg.Bist.aliased
  in
  Cmd.v
    (Cmd.info "bist" ~doc:"Emulate an LFSR+MISR self-test session.")
    Term.(const run $ obs_term $ circuit_pos $ length $ seed_flag)

let wave_cmd =
  let length =
    Arg.(value & opt int 32 & info [ "vectors"; "n" ] ~docv:"N" ~doc:"Cycles recorded.")
  in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"VCD file to write.")
  in
  let run obs (e : Registry.entry) length output seed =
    with_obs obs ~command:"wave" ~circuits:[ e.Registry.name ] ~seed @@ fun _ctx ->
    let nl = Mutsamp_synth.Flow.synthesize (design_of e) in
    let sim = Mutsamp_netlist.Bitsim.create nl in
    Mutsamp_netlist.Bitsim.reset sim;
    let recorder = Mutsamp_netlist.Vcd.create nl ~timescale:"1ns" in
    let bits = Array.length nl.Netlist.input_nets in
    let prng = Prng.create seed in
    for _ = 1 to length do
      let words =
        Array.init bits (fun _ ->
            if Prng.bool prng then Mutsamp_netlist.Bitsim.all_ones else 0)
      in
      ignore (Mutsamp_netlist.Bitsim.step sim words);
      Mutsamp_netlist.Vcd.sample recorder sim
    done;
    Mutsamp_netlist.Vcd.write_file output recorder;
    Printf.printf "%s: %d cycles of random stimulus dumped to %s\n" e.Registry.name
      length output
  in
  Cmd.v
    (Cmd.info "wave" ~doc:"Dump a random-stimulus run as a VCD waveform.")
    Term.(const run $ obs_term $ circuit_pos $ length $ output $ seed_flag)

let sync_cmd =
  let length =
    Arg.(value & opt int 64 & info [ "vectors"; "n" ] ~docv:"N" ~doc:"Sequence length tried.")
  in
  let run obs (e : Registry.entry) length seed =
    with_obs obs ~command:"sync" ~circuits:[ e.Registry.name ] ~seed @@ fun _ctx ->
    let p = Pipeline.prepare (design_of e) in
    let nl = p.Pipeline.netlist in
    let bits = Array.length nl.Netlist.input_nets in
    let sequence =
      Array.map Mutsamp_fault.Pattern.to_code
        (Prpg.uniform_sequence (Prng.create seed) ~bits ~length)
    in
    match Mutsamp_netlist.Xsim.synchronizing_length nl ~sequence with
    | Some n ->
      Printf.printf "%s: all %d flip-flops known after %d cycles from the all-X state\n"
        e.Registry.name (Netlist.num_dffs nl) n
    | None ->
      Printf.printf
        "%s: %d-cycle random sequence does not synchronise the machine (reset still required)\n"
        e.Registry.name length
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Three-valued initialisation analysis: can random inputs synchronise the state?")
    Term.(const run $ obs_term $ circuit_pos $ length $ seed_flag)

(* ------------------------------------------------------------------ *)
(* table1 / table2 / e3                                               *)
(* ------------------------------------------------------------------ *)

let circuits_opt =
  Arg.(value & opt_all string []
       & info [ "circuit"; "c" ] ~docv:"NAME"
           ~doc:"Circuit to include (repeatable; default: the paper's four).")

let circuits_pos =
  Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT")

(* Circuits can be named positionally or with --circuit; both combine. *)
let circuit_names names_opt names_pos =
  match names_opt @ names_pos with
  | [] -> List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.paper_benchmarks
  | names -> names

(* Validate names up front with the historical CLI error path (exit 1);
   the shared job bodies raise typed Protocol errors instead. *)
let check_known names =
  List.iter
    (fun n ->
      if Registry.find n = None then begin
        prerr_endline ("unknown circuit " ^ n);
        exit 1
      end)
    names

let resolve_circuits names =
  let entries =
    List.map
      (fun n ->
        match Registry.find n with
        | Some e -> e
        | None -> prerr_endline ("unknown circuit " ^ n); exit 1)
      names
  in
  List.map
    (fun (e : Registry.entry) ->
      (e.Registry.name, Pipeline.prepare (design_of e)))
    entries

let table1_cmd =
  let run obs names_opt names_pos quick seed =
    let config = config_of ~quick ~seed in
    let names = circuit_names names_opt names_pos in
    check_known names;
    (* Shared with the daemon — see faultsim_cmd. *)
    with_obs obs ~command:"table1" ~circuits:names ~config:(Config.to_json config)
      ~seed
    @@ fun ctx -> print_string (Sjobs.table1 ~ctx ~circuits:names ~quick ~seed)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 (operator efficiency).")
    Term.(const run $ obs_term $ circuits_opt $ circuits_pos $ quick_flag $ seed_flag)

let table2_cmd =
  let reps =
    Arg.(value & opt int 5 & info [ "repetitions"; "r" ] ~docv:"N"
           ~doc:"Independent repetitions to average.")
  in
  let run obs names_opt names_pos quick seed reps =
    let config = config_of ~quick ~seed in
    let names = circuit_names names_opt names_pos in
    check_known names;
    (* Shared with the daemon — see faultsim_cmd. *)
    with_obs obs ~command:"table2" ~circuits:names ~config:(Config.to_json config)
      ~seed
    @@ fun ctx ->
    print_string
      (Sjobs.table2
         ~equiv_progress:(fun ~name ~done_ ~total ->
           progress_line ("equivalence " ^ name) ~done_ ~total)
         ~ctx ~circuits:names ~quick ~seed ~repetitions:reps ())
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce the paper's Table 2 (sampling strategies).")
    Term.(const run $ obs_term $ circuits_opt $ circuits_pos $ quick_flag $ seed_flag
          $ reps)

let e3_cmd =
  let run obs names_opt names_pos quick seed =
    let config = config_of ~quick ~seed in
    let names = circuit_names names_opt names_pos in
    with_obs obs ~command:"e3" ~circuits:names ~config:(Config.to_json config)
      ~seed
    @@ fun ctx ->
    List.iter
      (fun (name, p) ->
        let sample =
          Strategy.sample (Prng.create (seed + 77)) Strategy.Random_uniform
            p.Pipeline.mutants ~rate:config.Config.sample_rate
        in
        let outcome =
          Vectorgen.generate
            ~config:{ config.Config.vector with Vectorgen.seed = seed + 78 }
            p.Pipeline.design sample
        in
        let rows =
          Experiments.atpg_effort ~config ~ctx p ~name
            ~mutation_sequences:outcome.Vectorgen.test_set
        in
        print_endline (Report.atpg_effort ~circuit:name rows))
      (resolve_circuits names)
  in
  Cmd.v
    (Cmd.info "e3" ~doc:"ATPG-effort experiment (validation-data reuse).")
    Term.(const run $ obs_term $ circuits_opt $ circuits_pos $ quick_flag $ seed_flag)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let waive =
    Arg.(value & opt_all string []
         & info [ "waive" ] ~docv:"RULEID[:LOC]"
             ~doc:"Suppress a finding: RULEID:LOC waives one location, bare \
                   RULEID waives the rule everywhere. Repeatable.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit nonzero on warnings too, not just errors.")
  in
  let no_observability =
    Arg.(value & flag
         & info [ "no-observability" ]
             ~doc:"Skip the quadratic blocked-net (NL004) netlist pass.")
  in
  let triage =
    Arg.(value & flag
         & info [ "triage" ]
             ~doc:"Also triage the mutant population (MUT001/MUT002 findings). \
                   Generates every mutant, so expensive on large circuits.")
  in
  let run obs names_opt names_pos format waive strict no_observability triage =
    (* Default: the whole registry — lint is a tree-wide health check. *)
    let names =
      match names_opt @ names_pos with [] -> Registry.names () | ns -> ns
    in
    let waivers =
      List.map
        (fun s ->
          match Analysis.Engine.waiver_of_string s with
          | Ok w -> w
          | Error msg ->
            Printf.eprintf "mutsamp: bad --waive: %s\n" msg;
            exit 64)
        waive
    in
    let opts =
      {
        Analysis.Engine.waivers;
        strict;
        check_observability = not no_observability;
      }
    in
    let all_diags = ref [] in
    let errors =
      with_obs obs ~command:"lint" ~circuits:names
        ~sections:(fun () ->
          [ ("analysis", Analysis.Engine.report_section !all_diags) ])
      @@ fun _ctx ->
      List.iter
        (fun name ->
          (match
             Budget.check_deadline (Budget.ambient ()) ~stage:Rerror.Pipeline
           with
           | Ok () -> ()
           | Error e -> raise (Rerror.E e));
          let e =
            match Registry.find name with
            | Some e -> e
            | None ->
              Printf.eprintf "mutsamp: unknown circuit %S\n" name;
              exit 64
          in
          Trace.with_span "lint" ~attrs:[ ("circuit", name) ] @@ fun () ->
          let d = design_of e in
          let dd = Analysis.Engine.lint_design opts ~circuit:name d in
          let nl =
            Trace.with_span "synth" (fun () -> Mutsamp_synth.Flow.synthesize d)
          in
          let dn = Analysis.Engine.lint_netlist opts ~circuit:name nl in
          let dm =
            if not triage then []
            else
              let t =
                Trace.with_span "triage" (fun () ->
                    Analysis.Triage.run d (Generate.all d))
              in
              Analysis.Engine.finish opts (Analysis.Triage.diagnostics t ~circuit:name)
          in
          all_diags := !all_diags @ dd @ dn @ dm)
        names;
      let diags = !all_diags in
      (match format with
       | `Text ->
         List.iter (fun d -> print_endline (Analysis.Diag.to_string d)) diags;
         let s = Analysis.Engine.summary diags in
         let get k = Option.value ~default:0 (List.assoc_opt k s) in
         Printf.printf
           "%d circuit(s): %d finding(s) — %d error(s), %d warning(s), %d info(s), %d waived\n"
           (List.length names) (get "findings") (get "errors") (get "warnings")
           (get "infos") (get "waived")
       | `Json ->
         print_endline
           (Json.to_string (Analysis.Engine.report_section diags)));
      Analysis.Engine.error_count ~strict diags
    in
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis: lint behavioural designs and synthesised \
             netlists (and optionally the mutant population).")
    Term.(const run $ obs_term $ circuits_opt $ circuits_pos $ format $ waive
          $ strict $ no_observability $ triage)

(* ------------------------------------------------------------------ *)
(* report-validate                                                    *)
(* ------------------------------------------------------------------ *)

let report_validate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run path =
    match Runreport.validate_file path with
    | Ok () ->
      Printf.printf "%s: valid run report (schema %d)\n" path
        Runreport.schema_version
    | Error msg ->
      Printf.eprintf "%s: invalid run report: %s\n" path msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "report-validate"
       ~doc:"Check that FILE is a well-formed mutsamp run report.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* store                                                              *)
(* ------------------------------------------------------------------ *)

let store_cmd =
  let dir_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let namespace =
    Arg.(value & opt (some string) None
         & info [ "namespace" ] ~docv:"NS"
             ~doc:"Restrict to one namespace (fsim, fsimcone, vectors, score, \
                   equiv, t1row, atpg).")
  in
  let open_store dir =
    match Store.open_dir dir with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "mutsamp: %s: %s\n" dir (Rerror.to_string e);
      exit (Rerror.exit_code e)
  in
  let stats_cmd =
    let format =
      Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
           & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
    in
    let run dir format =
      let s = Store.stats (open_store dir) in
      match format with
      | `Text ->
        Printf.printf "%s: %d entries, %d bytes, %d stale temp file(s)\n" dir
          s.Store.entries s.Store.bytes s.Store.stale_tmp;
        List.iter
          (fun (ns, n) -> Printf.printf "  %-10s %d\n" ns n)
          s.Store.namespaces
      | `Json -> print_endline (Json.to_string (Store.stats_to_json ~dir s))
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Entry and byte counts per namespace.")
      Term.(const run $ dir_pos $ format)
  in
  let gc_cmd =
    let max_age_days =
      Arg.(value & opt (some float) None
           & info [ "max-age-days" ] ~docv:"DAYS"
               ~doc:"Also remove entries not rewritten for DAYS days.")
    in
    let run dir namespace max_age_days =
      let t = open_store dir in
      let max_age_s = Option.map (fun d -> d *. 86400.) max_age_days in
      let n = Store.gc t ?namespace ?max_age_s () in
      Printf.printf "%s: removed %d file(s)\n" dir n
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Remove stale temp files left by interrupted writes, plus any \
               entries matching --namespace / --max-age-days.")
      Term.(const run $ dir_pos $ namespace $ max_age_days)
  in
  let invalidate_cmd =
    let field =
      let parse s =
        match String.index_opt s '=' with
        | Some i when i > 0 ->
          Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
        | _ -> Error (`Msg "expected FIELD=VALUE")
      in
      let print fmt (f, v) = Format.fprintf fmt "%s=%s" f v in
      Arg.(value & opt (some (conv (parse, print))) None
           & info [ "key" ] ~docv:"FIELD=VALUE"
               ~doc:"Only entries whose key carries this exact part, e.g. \
                     --key circuit=c432 or --key seed=2005.")
    in
    let cone =
      Arg.(value & opt (some string) None
           & info [ "cone" ] ~docv:"NET"
               ~doc:"Only cone-keyed entries (namespace fsimcone) whose \
                     recorded input cone contains this net — a primary input \
                     or output name, or an internal n<ID> label from the \
                     exported .bench. Entries for untouched cones survive.")
    in
    let run dir namespace field cone =
      let t = open_store dir in
      let n = Store.invalidate t ?namespace ?field ?cone () in
      Printf.printf "%s: invalidated %d entr%s\n" dir n (if n = 1 then "y" else "ies")
    in
    Cmd.v
      (Cmd.info "invalidate"
         ~doc:"Delete store entries — everything by default, or the subset \
               matching --namespace / --key / --cone. The next run recomputes \
               them.")
      Term.(const run $ dir_pos $ namespace $ field $ cone)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a campaign store (see docs/STORE.md).")
    [ stats_cmd; gc_cmd; invalidate_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / client                                                     *)
(* ------------------------------------------------------------------ *)

let socket_flag =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_flag =
  Arg.(value & opt (some string) None
       & info [ "tcp" ] ~docv:"ADDR:PORT"
           ~doc:"TCP endpoint with a numeric address, e.g. 127.0.0.1:7433.")

let listen_of ~what socket tcp =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "mutsamp %s: %s\n" what m;
        exit 64)
      fmt
  in
  match (socket, tcp) with
  | Some _, Some _ -> fail "choose one of --socket and --tcp"
  | Some path, None -> Sserver.Unix_path path
  | None, Some spec -> (
    match String.rindex_opt spec ':' with
    | None -> fail "bad --tcp %S (expected ADDR:PORT)" spec
    | Some i -> (
      let addr = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Sserver.Tcp (addr, p)
      | _ -> fail "bad --tcp port %S" port))
  | None, None -> fail "one of --socket PATH or --tcp ADDR:PORT is required"

let serve_cmd =
  let queue_depth =
    Arg.(value & opt int 16
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Bounded job-queue capacity; requests beyond it get an \
                   immediate typed overloaded reply instead of queueing.")
  in
  let request_deadline_ms =
    Arg.(value & opt int 0
         & info [ "request-deadline-ms" ] ~docv:"MS"
             ~doc:"Server-side wall-clock cap per request (0 = none); a \
                   client deadline_ms below it wins.")
  in
  let idle_timeout_ms =
    Arg.(value & opt int 30_000
         & info [ "idle-timeout-ms" ] ~docv:"MS"
             ~doc:"Close connections idle for this long (0 = never).")
  in
  let drain_grace_ms =
    Arg.(value & opt int 2_000
         & info [ "drain-grace-ms" ] ~docv:"MS"
             ~doc:"On SIGTERM/SIGINT, budget-cancel in-flight work still \
                   running after this grace period.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for sharded stages (shared across \
                   requests); 0 means one per available core.")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Campaign store directory shared by every request (created \
                   if missing). See docs/STORE.md.")
  in
  let chaos =
    Arg.(value & opt_all string []
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Arm fault injection for every request (test hook): \
                   POINT:ACTION[@AFTER]. Repeatable.")
  in
  let chaos_seed =
    Arg.(value & opt int 2005
         & info [ "chaos-seed" ] ~docv:"N"
             ~doc:"Seed for probabilistic chaos armings.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Log per-request lines to stderr.")
  in
  let run socket tcp queue_depth request_deadline_ms idle_timeout_ms
      drain_grace_ms jobs store_dir chaos chaos_seed verbose =
    let listen = listen_of ~what:"serve" socket tcp in
    (* Reject bad chaos specs at startup, not on the first request. *)
    List.iter
      (fun spec ->
        match Chaos.parse_spec spec with
        | Ok () -> ()
        | Error msg ->
          Printf.eprintf "mutsamp serve: bad --chaos spec: %s\n" msg;
          exit 64)
      chaos;
    Chaos.disarm_all ();
    let store =
      match store_dir with
      | None -> None
      | Some dir -> (
        match Store.open_dir dir with
        | Ok s ->
          Store.reset_counters ();
          Some s
        | Error e ->
          Printf.eprintf "mutsamp serve: --store %s: %s\n" dir
            (Rerror.to_string e);
          exit (Rerror.exit_code e))
    in
    let log =
      if verbose then Some (fun m -> Printf.eprintf "mutsamp serve: %s\n%!" m)
      else None
    in
    let cfg =
      Sserver.config ~queue_depth ~request_deadline_ms ~idle_timeout_ms
        ~drain_grace_ms ~jobs ?store ~chaos_specs:chaos ~chaos_seed ?log listen
    in
    match Sserver.create cfg with
    | Error e ->
      Printf.eprintf "mutsamp serve: %s\n" (Rerror.to_string e);
      exit (Rerror.exit_code e)
    | Ok t ->
      (* Handlers only flip an atomic; the accept loop notices on its
         next select tick and performs the graceful drain itself. *)
      let drain _ = Sserver.initiate_drain t in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
      Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Printf.eprintf "mutsamp serve: listening on %s\n%!"
        (match listen with
         | Sserver.Unix_path p -> p
         | Sserver.Tcp (a, p) -> Printf.sprintf "%s:%d" a p);
      Sserver.run t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fault-isolated campaign service daemon: \
             newline-delimited JSON requests over a Unix or TCP socket, \
             bounded queueing with load shedding, per-request budgets and \
             typed error replies, graceful drain on SIGTERM/SIGINT. See \
             docs/SERVICE.md.")
    Term.(const run $ socket_flag $ tcp_flag $ queue_depth
          $ request_deadline_ms $ idle_timeout_ms $ drain_grace_ms $ jobs
          $ store $ chaos $ chaos_seed $ verbose)

let client_cmd =
  let request_pos =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"REQUEST"
             ~doc:"Request JSON line (sent verbatim). Omitted: read request \
                   lines from stdin until EOF.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Give up waiting for a reply after MS (exit 75).")
  in
  let connect_retries =
    Arg.(value & opt int 5
         & info [ "connect-retries" ] ~docv:"N"
             ~doc:"Connection attempts with exponential backoff (daemon \
                   startup and client launch race in scripts).")
  in
  let output_only =
    Arg.(value & flag
         & info [ "output-only"; "o" ]
             ~doc:"Print only the ok-reply output text (the batch CLI's \
                   stdout bytes) instead of the raw reply line.")
  in
  let report_out =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the last ok reply's embedded run report to FILE.")
  in
  let run socket tcp request timeout_ms connect_retries output_only report_out =
    let listen = listen_of ~what:"client" socket tcp in
    let policy =
      Retry.policy ~max_attempts:connect_retries ~base_delay_ms:50.
        ~max_delay_ms:1000. ()
    in
    match Sclient.connect ~policy listen with
    | Error e ->
      Printf.eprintf "mutsamp client: %s\n" (Rerror.to_string e);
      exit (Rerror.exit_code e)
    | Ok conn ->
      let lines =
        match request with
        | Some r -> [ r ]
        | None ->
          let rec read acc =
            match input_line stdin with
            | line -> read (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          read []
      in
      let last_report = ref None in
      let code =
        List.fold_left
          (fun acc line ->
            match Sclient.request_line ?timeout_ms conn line with
            | Error e ->
              Printf.eprintf "mutsamp client: %s\n" (Rerror.to_string e);
              max acc (Rerror.exit_code e)
            | Ok reply_line -> (
              match Sprotocol.parse_reply reply_line with
              | Ok (Sprotocol.Ok_reply { output; report; _ }) ->
                if output_only then print_string output
                else print_endline reply_line;
                (match report with
                 | Some r -> last_report := Some r
                 | None -> ());
                acc
              | Ok (Sprotocol.Error_reply { message; exit_code; _ }) ->
                Printf.eprintf "mutsamp client: %s\n" message;
                if not output_only then print_endline reply_line;
                max acc exit_code
              | Error e ->
                Printf.eprintf "mutsamp client: %s\n" (Rerror.to_string e);
                max acc (Rerror.exit_code e)))
          0 lines
      in
      Sclient.close conn;
      (match (report_out, !last_report) with
       | Some path, Some r -> (
         match Atomicio.write_file path (Json.to_string r) with
         | Ok () -> ()
         | Error e ->
           Printf.eprintf "mutsamp client: cannot write report: %s\n"
             (Rerror.to_string e);
           exit (Rerror.exit_code e))
       | Some path, None ->
         Printf.eprintf "mutsamp client: no report received for --report %s\n"
           path
       | None, _ -> ());
      if code > 0 then exit code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running mutsamp serve daemon and print the \
             replies; error replies map to the daemon's typed exit codes.")
    Term.(const run $ socket_flag $ tcp_flag $ request_pos $ timeout_ms
          $ connect_retries $ output_only $ report_out)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "mutation sampling for structural test data generation" in
  let info = Cmd.info "mutsamp" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd; show_cmd; mutants_cmd; generate_cmd; faultsim_cmd;
            atpg_cmd; dot_cmd; export_cmd; import_cmd; diagnose_cmd;
            seqatpg_cmd; bist_cmd; sync_cmd; wave_cmd;
            lint_cmd; table1_cmd; table2_cmd; e3_cmd; report_validate_cmd;
            store_cmd; serve_cmd; client_cmd;
          ]))
