(* Tests for lib/exec: the domain pool itself, and differential checks
   that every sharded stage is bit-identical to its sequential path at
   any jobs setting — including under budget exhaustion and injected
   worker faults. *)

module Pool = Mutsamp_exec.Pool
module Ctx = Mutsamp_exec.Ctx
module Registry = Mutsamp_circuits.Registry
module Pipeline = Mutsamp_core.Pipeline
module Experiments = Mutsamp_core.Experiments
module Config = Mutsamp_core.Config
module Kill = Mutsamp_mutation.Kill
module Operator = Mutsamp_mutation.Operator
module Stimuli = Mutsamp_hdl.Stimuli
module Fsim = Mutsamp_fault.Fsim
module Prpg = Mutsamp_atpg.Prpg
module Prng = Mutsamp_util.Prng
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Cliargs = Mutsamp_exec.Cliargs
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Profile = Mutsamp_obs.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f ctx] under a fresh pool of [jobs] domains, shutting the pool
   down whatever happens. *)
let with_jobs jobs f =
  let pool = Pool.create ~domains:jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> f (Ctx.with_pool pool))

(* Chaos armings, the degradation record and the ambient budget are
   process-global; leave nothing behind for the rest of the suite. *)
let clean f () =
  Chaos.disarm_all ();
  Degrade.reset ();
  Budget.set_ambient Budget.unlimited;
  Fun.protect
    ~finally:(fun () ->
      Chaos.disarm_all ();
      Degrade.reset ();
      Budget.set_ambient Budget.unlimited)
    f

let pipeline name =
  match Registry.find name with
  | Some e -> Pipeline.prepare (e.Registry.design ())
  | None -> Alcotest.failf "circuit %s not in registry" name

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_map_in_index_order () =
  with_jobs 3 (fun ctx ->
      let pool = Option.get ctx.Ctx.pool in
      let got = Pool.run pool 100 ~f:(fun i -> i * i) in
      Alcotest.(check (array int)) "squares" (Array.init 100 (fun i -> i * i)) got;
      check_int "empty batch" 0 (Array.length (Pool.run pool 0 ~f:(fun i -> i)));
      (* Fewer tasks than domains: still exactly one evaluation each. *)
      let hits = Array.make 2 0 in
      ignore (Pool.run pool 2 ~f:(fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check (array int)) "single evaluation" [| 1; 1 |] hits)

let test_pool_lowest_index_exception_wins () =
  with_jobs 4 (fun ctx ->
      let pool = Option.get ctx.Ctx.pool in
      (match
         Pool.run pool 50 ~f:(fun i ->
             if i mod 7 = 3 then failwith (string_of_int i) else i)
       with
      | _ -> Alcotest.fail "should raise"
      | exception Failure msg ->
        (* 3 is the lowest failing index — the same exception the
           sequential left-to-right loop would have surfaced first. *)
        check_int "lowest failing index" 3 (int_of_string msg));
      (* The pool survives a failed batch. *)
      let again = Pool.run pool 5 ~f:(fun i -> i + 1) in
      Alcotest.(check (array int)) "usable after failure" [| 1; 2; 3; 4; 5 |] again)

(* Tasks only record what they see; the checks run on the calling
   domain, because Alcotest's assertion log is not safe to write from
   several domains at once. *)
let test_pool_nested_runs_inline () =
  with_jobs 3 (fun ctx ->
      let pool = Option.get ctx.Ctx.pool in
      check_bool "not in worker outside" false (Pool.in_worker ());
      let got =
        Pool.run pool 4 ~f:(fun i ->
            let inside = Pool.in_worker () in
            (* A nested submission must execute inline, not deadlock. *)
            (inside, Array.fold_left ( + ) 0 (Pool.run pool 3 ~f:(fun j -> (10 * i) + j))))
      in
      Array.iter (fun (inside, _) -> check_bool "in worker inside" true inside) got;
      Alcotest.(check (array int)) "nested sums"
        (Array.init 4 (fun i -> (30 * i) + 3)) (Array.map snd got);
      (* Ctx reports fan-out 1 inside a worker, so sharded entry points
         nested under a pool take their sequential path. *)
      Array.iter (check_int "nested jobs" 1) (Pool.run pool 2 ~f:(fun _ -> Ctx.jobs ctx)))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:4 in
  check_int "size" 4 (Pool.size pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  let got = Pool.run pool 3 ~f:(fun i -> -i) in
  Alcotest.(check (array int)) "inline after shutdown" [| 0; -1; -2 |] got

(* Ticks from four worker domains reach the progress callback one at a
   time and in count order; with no callback the tick does nothing. The
   callback spins between reading and writing [seen] to widen the
   window an unserialised callback would race in. *)
let test_ticker_in_order () =
  let n = 10_000 in
  let seen = ref [] in
  with_jobs 4 (fun pool_ctx ->
      let progress ~stage:_ ~done_ ~total:_ =
        let prev = !seen in
        for _ = 1 to 20 do Domain.cpu_relax () done;
        seen := done_ :: prev
      in
      let ctx = { pool_ctx with Ctx.progress = Some progress } in
      let tick = Ctx.ticker ctx ~stage:"t" ~total:(2 * n) in
      ignore
        (Ctx.map_shards ctx ~n ~f:(fun ~budget:_ ~lo:_ ~len ->
             for _ = 1 to len do tick 2 done)));
  Alcotest.(check (list int)) "counts in order"
    (List.init n (fun i -> 2 * (i + 1)))
    (List.rev !seen);
  Ctx.ticker Ctx.default ~stage:"t" ~total:1 1

let test_chunks_invariants () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let ch = Pool.chunks ~jobs ~n in
          if n <= 0 then check_int "empty" 0 (Array.length ch)
          else begin
            check_bool "at most jobs chunks" true (Array.length ch <= max 1 jobs);
            let covered = ref 0 in
            Array.iteri
              (fun i (lo, len) ->
                check_bool "non-empty" true (len > 0);
                check_int "contiguous" !covered lo;
                covered := !covered + len;
                ignore i)
              ch;
            check_int "covers range" n !covered;
            let sizes = Array.map snd ch in
            let mn = Array.fold_left min max_int sizes in
            let mx = Array.fold_left max 0 sizes in
            check_bool "balanced" true (mx - mn <= 1)
          end)
        [ 0; 1; 2; 3; 7; 64; 1000 ])
    [ 1; 2; 4; 7; 16 ]

(* ------------------------------------------------------------------ *)
(* Differential: fault simulation                                     *)
(* ------------------------------------------------------------------ *)

let fsim_report p jobs =
  let nl = p.Pipeline.netlist in
  let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
  let patterns = Prpg.uniform_sequence (Prng.create 11) ~bits ~length:128 in
  if jobs = 1 then Pipeline.fault_simulate p patterns
  else with_jobs jobs (fun ctx -> Pipeline.fault_simulate ~ctx p patterns)

let test_fsim_differential () =
  List.iter
    (fun name ->
      let p = pipeline name in
      let baseline = fsim_report p 1 in
      check_bool (name ^ " detects something") true (baseline.Fsim.detected > 0);
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "%s jobs %d ≡ sequential" name jobs)
            true
            (fsim_report p jobs = baseline))
        [ 2; 4; 7 ])
    [ "c17"; "c432"; "b01"; "wide128" ]

(* ------------------------------------------------------------------ *)
(* Differential: mutant execution                                     *)
(* ------------------------------------------------------------------ *)

let test_kill_differential () =
  let p = pipeline "c17" in
  let runner = Kill.make p.Pipeline.design p.Pipeline.mutants in
  let prng = Prng.create 23 in
  let sequences =
    List.init 8 (fun _ -> Stimuli.random_sequence prng p.Pipeline.design 4)
  in
  let seq = List.hd sequences in
  let base_killed = Kill.killed_set runner sequences in
  let base_kills_at = Kill.kills_at runner seq in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun ctx ->
          check_bool "killed_set identical" true
            (Kill.killed_set runner ~ctx sequences = base_killed);
          check_bool "kills_at identical" true
            (Kill.kills_at runner ~ctx seq = base_kills_at)))
    [ 2; 4; 7 ]

(* ------------------------------------------------------------------ *)
(* Differential: campaign cells and equivalence classification        *)
(* ------------------------------------------------------------------ *)

let test_table1_differential () =
  let p = pipeline "c17" in
  let base =
    Experiments.operator_efficiency ~config:Config.quick ~operators:Operator.all p
      ~name:"c17"
  in
  with_jobs 3 (fun ctx ->
      let sharded =
        Experiments.operator_efficiency ~config:Config.quick ~operators:Operator.all
          ~ctx p ~name:"c17"
      in
      check_bool "table1 rows identical" true (sharded = base))

(* ------------------------------------------------------------------ *)
(* QCheck: randomized jobs/workload differentials                     *)
(* ------------------------------------------------------------------ *)

let c17_pipeline = lazy (pipeline "c17")
let b01_pipeline = lazy (pipeline "b01")

(* Any (jobs, pattern-count) pair must reproduce the sequential report
   exactly — fault order, detection indices, everything. *)
let prop_fsim_random_jobs_identical =
  QCheck.Test.make ~name:"sharded fsim = sequential, random jobs/workload"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let p =
        Lazy.force (if seed mod 2 = 0 then c17_pipeline else b01_pipeline)
      in
      let jobs = 2 + (seed mod 6) in
      let nl = p.Pipeline.netlist in
      let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
      let length = 16 + (seed mod 120) in
      let mk () = Prpg.uniform_sequence (Prng.create seed) ~bits ~length in
      let baseline = Pipeline.fault_simulate p (mk ()) in
      with_jobs jobs (fun ctx -> Pipeline.fault_simulate ~ctx p (mk ()) = baseline))

let prop_chunks_partition =
  QCheck.Test.make ~name:"chunks partition any range" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 32) (int_range 0 5000)))
    (fun (jobs, n) ->
      let ch = Pool.chunks ~jobs ~n in
      if n <= 0 then Array.length ch = 0
      else
        Array.length ch <= jobs
        && Array.for_all (fun (_, len) -> len > 0) ch
        && fst ch.(0) = 0
        && Array.fold_left (fun next (lo, len) -> if lo = next then lo + len else -1)
             0 ch
           = n
        &&
        let sizes = Array.map snd ch in
        Array.fold_left max 0 sizes - Array.fold_left min max_int sizes <= 1)

(* ------------------------------------------------------------------ *)
(* Determinism under budget exhaustion and injected worker faults     *)
(* ------------------------------------------------------------------ *)

let test_budget_exhaustion_deterministic () =
  let p = pipeline "c432" in
  let full = fsim_report p 1 in
  let cut jobs =
    (* A fresh budget each run: quotas deplete in place. *)
    Degrade.reset ();
    with_jobs jobs (fun ctx ->
        let ctx = { ctx with Ctx.budget = Some (Budget.create ~fsim_pairs:5000 ()) } in
        let nl = p.Pipeline.netlist in
        let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
        let patterns = Prpg.uniform_sequence (Prng.create 11) ~bits ~length:128 in
        let r = Pipeline.fault_simulate ~ctx p patterns in
        check_bool "cut is on record" true
          (List.mem "fsim" (Degrade.degraded_stages ()));
        r)
  in
  let first = cut 4 in
  check_bool "partial under budget" true (first.Fsim.detected < full.Fsim.detected);
  check_bool "same run twice" true (cut 4 = first)

(* A Kill budget cut leaves mutants alive, never kills extra ones: at
   about half the unbudgeted spend the flags are a subset of the full
   run's, the cut is on record, and nothing escapes as an exception. *)
let test_kill_budget_cut () =
  let p = pipeline "c17" in
  let runner = Kill.make p.Pipeline.design p.Pipeline.mutants in
  let prng = Prng.create 29 in
  let sequences =
    List.init 8 (fun _ -> Stimuli.random_sequence prng p.Pipeline.design 4)
  in
  let quota = 1_000_000 in
  let probe = Budget.create ~fsim_pairs:quota () in
  let full = Kill.killed_set runner ~ctx:(Ctx.make ~budget:probe ()) sequences in
  check_bool "unbudgeted run not degraded" false (Degrade.any ());
  let spent = quota - Budget.remaining probe Budget.Fsim_pairs in
  check_bool "the full run spends" true (spent > 1);
  List.iter
    (fun jobs ->
      Degrade.reset ();
      let budget = Budget.create ~fsim_pairs:(spent / 2) () in
      let cut =
        if jobs = 1 then Kill.killed_set runner ~ctx:(Ctx.make ~budget ()) sequences
        else
          with_jobs jobs (fun ctx ->
              Kill.killed_set runner ~ctx:{ ctx with Ctx.budget = Some budget } sequences)
      in
      check_int "one flag per mutant" (Array.length full) (Array.length cut);
      Array.iteri
        (fun i k -> if k then check_bool "cut kills only what the full run kills" true full.(i))
        cut;
      check_bool "cut is on record" true (List.mem "kill" (Degrade.degraded_stages ())))
    [ 1; 2 ]

let test_chaos_in_worker_deterministic () =
  let p = pipeline "c432" in
  let run jobs =
    Degrade.reset ();
    Chaos.disarm_all ();
    Chaos.arm Chaos.Fsim_run Chaos.Timeout;
    let nl = p.Pipeline.netlist in
    let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
    let patterns = Prpg.uniform_sequence (Prng.create 11) ~bits ~length:128 in
    let r =
      if jobs = 1 then Pipeline.fault_simulate p patterns
      else with_jobs jobs (fun ctx -> Pipeline.fault_simulate ~ctx p patterns)
    in
    check_bool "degradation recorded" true (Degrade.any ());
    r
  in
  let seq = run 1 in
  (* The injected timeout fires in every shard, so nothing is detected
     anywhere — and the report is identical to the sequential one. *)
  check_int "nothing detected" 0 seq.Fsim.detected;
  check_bool "jobs 4 identical under chaos" true (run 4 = seq);
  check_bool "jobs 4 repeatable under chaos" true (run 4 = seq)

(* ------------------------------------------------------------------ *)
(* Shared argv parsing (bench/main.ml and ad-hoc tools)               *)
(* ------------------------------------------------------------------ *)

let test_cliargs_jobs_spellings () =
  let argv l = Array.of_list ("bench" :: l) in
  check_int "--jobs N" 4 (Cliargs.jobs (argv [ "--jobs"; "4" ]));
  check_int "--jobs=N" 3 (Cliargs.jobs (argv [ "--jobs=3" ]));
  check_int "-j N" 2 (Cliargs.jobs (argv [ "-j"; "2" ]));
  check_int "-jN" 6 (Cliargs.jobs (argv [ "-j6" ]));
  check_int "absent -> default" 1 (Cliargs.jobs (argv [ "--quick" ]));
  check_int "malformed -> default" 1 (Cliargs.jobs (argv [ "--jobs"; "many" ]));
  check_int "last occurrence wins" 5 (Cliargs.jobs (argv [ "--jobs"; "2"; "-j5" ]));
  check_int "other flags interleaved" 7
    (Cliargs.jobs (argv [ "--quick"; "-j"; "7"; "--metrics" ]))

let test_cliargs_value_and_flag () =
  let argv l = Array.of_list ("bench" :: l) in
  let check_opt = Alcotest.(check (option string)) in
  check_opt "--report FILE" (Some "r.json")
    (Cliargs.value_opt ~long:"--report" (argv [ "--report"; "r.json" ]));
  check_opt "--report=FILE" (Some "r.json")
    (Cliargs.value_opt ~long:"--report" (argv [ "--report=r.json" ]));
  check_opt "absent" None (Cliargs.value_opt ~long:"--report" (argv [ "--quick" ]));
  check_opt "last occurrence wins" (Some "b.json")
    (Cliargs.value_opt ~long:"--report"
       (argv [ "--report"; "a.json"; "--report=b.json" ]));
  check_bool "flag present" true (Cliargs.flag [ "--quick" ] (argv [ "--quick" ]));
  check_bool "flag absent" false (Cliargs.flag [ "--quick" ] (argv []));
  check_bool "any spelling" true
    (Cliargs.flag [ "-q"; "--quick" ] (argv [ "-q" ]))

(* ------------------------------------------------------------------ *)
(* Observability under the pool                                       *)
(* ------------------------------------------------------------------ *)

(* Tracing and metrics are process-global; leave both disabled and
   empty for the rest of the suite. *)
let clean_obs f () =
  let wipe () =
    Trace.set_enabled false;
    Trace.reset ();
    Metrics.set_enabled false;
    Metrics.reset ()
  in
  wipe ();
  Fun.protect ~finally:wipe f

(* Worker spans recorded during a sharded stage are grafted into the
   coordinator's tree at the join, tagged with their domain's track. *)
let test_worker_spans_merged () =
  Trace.set_enabled true;
  Trace.reset ();
  with_jobs 4 (fun ctx ->
      Trace.with_span "root" (fun () ->
          ignore
            (Ctx.map_shards ctx ~n:8 ~f:(fun ~budget:_ ~lo ~len ->
                 (* Keep each shard busy long enough that the caller
                    cannot drain the whole queue before a worker wakes. *)
                 Unix.sleepf 0.005;
                 (lo, len)))));
  let tracks = Trace.tracks () in
  check_bool "main + 3 workers registered" true (List.length tracks >= 4);
  check_bool "track 0 is main" true (List.mem_assoc 0 tracks);
  match Trace.roots () with
  | [ root ] ->
    check_int "root on main track" 0 root.Trace.track;
    let shards =
      List.filter (fun s -> s.Trace.name = "shard") root.Trace.children
    in
    check_int "every shard span grafted" 4 (List.length shards);
    check_bool "some shard ran on a worker track" true
      (List.exists (fun s -> s.Trace.track <> 0) shards);
    (* Grafting orders children by (track, start): main-track spans
       keep their open order at the front. *)
    let tracks_in_order = List.map (fun s -> s.Trace.track) shards in
    check_bool "children sorted by track" true
      (tracks_in_order = List.sort compare tracks_in_order)
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

(* The profile invariant — self times never exceed wall clock — must
   hold on a real multi-domain fault simulation, not just on
   hand-built trees. *)
let test_profile_self_within_wall () =
  let p = pipeline "c432" in
  Trace.set_enabled true;
  Trace.reset ();
  ignore (fsim_report p 4);
  let prof = Profile.current () in
  check_bool "profile has rows" true (prof.Profile.rows <> []);
  let self_sum =
    List.fold_left (fun acc r -> acc +. r.Profile.self_s) 0.0 prof.Profile.rows
  in
  check_bool "sum of self times <= wall" true
    (self_sum <= prof.Profile.wall_s +. 1e-9)

(* The counter convention that makes reports comparable: [fsim.*]
   series describe the logical workload and must not depend on how it
   was sharded; only [exec.*] series may. *)
let logical_series () =
  let snap = Metrics.snapshot () in
  let physical name = String.length name >= 5 && String.sub name 0 5 = "exec." in
  ( List.filter (fun (n, _) -> not (physical n)) snap.Metrics.counters,
    List.filter (fun (n, _) -> not (physical n)) snap.Metrics.histograms )

(* Each run classifies a fresh pipeline's mutants, so no verdict is
   kept from an earlier run: every exact check runs, on the pool's
   domains, over the one oracle's shared input words. *)
let test_classify_equivalents_differential () =
  let run name ctx =
    let p = pipeline name in
    Metrics.set_enabled true;
    Metrics.reset ();
    let equivalents = Pipeline.classify_equivalents ~screen:64 ~ctx ~seed:3 p in
    let s = logical_series () in
    Metrics.set_enabled false;
    (equivalents, s)
  in
  List.iter
    (fun name ->
      let base = run name Ctx.default in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "%s equivalents and counters jobs %d ≡ sequential" name jobs)
            true
            (with_jobs jobs (run name) = base))
        [ 1; 2; 4 ])
    [ "c17"; "b01" ]

let test_metrics_identical_across_jobs () =
  let p = pipeline "c432" in
  let run jobs =
    Metrics.set_enabled true;
    Metrics.reset ();
    ignore (fsim_report p jobs);
    let s = logical_series () in
    Metrics.set_enabled false;
    s
  in
  let base = run 1 in
  check_bool "logical counters recorded" true (fst base <> []);
  check_bool "fsim.patterns_simulated present" true
    (List.mem_assoc "fsim.patterns_simulated" (fst base));
  List.iter
    (fun jobs ->
      let got = run jobs in
      if got <> base then begin
        let dump tag (counters, histograms) =
          Printf.eprintf "[%s] counters:\n" tag;
          List.iter (fun (n, v) -> Printf.eprintf "  %s = %d\n" n v) counters;
          Printf.eprintf "[%s] histograms:\n" tag;
          List.iter
            (fun (n, s) ->
              Printf.eprintf "  %s n=%d sum=%g\n" n s.Metrics.n s.Metrics.sum)
            histograms
        in
        dump "jobs 1" base;
        dump (Printf.sprintf "jobs %d" jobs) got
      end;
      check_bool
        (Printf.sprintf "logical series jobs %d ≡ jobs 1" jobs)
        true
        (got = base))
    [ 2; 4 ]

(* Each equivalence verdict is computed once however the campaign is
   scheduled: classification shards and the Table 2 strategy cells of
   both repetitions decide the same c432 mutants, and [sat.solves] must
   not depend on which domain decides one first. Each run prepares its
   own pipeline, so no verdict carries over between jobs settings. *)
let test_equivalence_metrics_identical_across_jobs () =
  let weights = List.map (fun op -> (op, 1.)) Operator.all in
  let run jobs =
    let p = pipeline "c432" in
    Metrics.set_enabled true;
    Metrics.reset ();
    with_jobs jobs (fun ctx ->
        let equivalents = Pipeline.classify_equivalents ~ctx ~seed:2005 p in
        ignore
          (Experiments.sampling_comparison_avg ~config:Config.quick ~repetitions:2 ~ctx p
             ~name:"c432" ~weights ~equivalents));
    let s = fst (logical_series ()) in
    Metrics.set_enabled false;
    s
  in
  let base = run 1 in
  let count name = Option.value ~default:0 (List.assoc_opt name base) in
  check_bool "miter solves recorded" true (count "sat.solves" > 0);
  check_bool "verdicts reused" true (count "equiv.reused" > 0);
  List.iter
    (fun jobs ->
      let got = run jobs in
      List.iter
        (fun (n, v) ->
          let w = Option.value ~default:0 (List.assoc_opt n got) in
          if v <> w then Printf.eprintf "  %s: jobs 1 = %d, jobs %d = %d\n" n v jobs w)
        base;
      check_bool (Printf.sprintf "logical counters jobs %d ≡ jobs 1" jobs) true (got = base))
    [ 2; 4 ]

(* Queue-wait and shard-timing histograms only exist on the pool
   path, under the exec.* namespace. Run on b03 over 512 cycles: each
   packed shard lasts long enough for a worker to wake and pick up a
   queued task, so a queue wait is always measured. (Compiled finishes
   c432 so fast that the coordinator, which also drains the queue, can
   complete every shard before a worker wakes.) *)
let test_exec_histograms_recorded () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let p = pipeline "b03" in
  ignore
    (with_jobs 4 (fun ctx ->
         let nl = p.Pipeline.netlist in
         let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
         let sequence =
           Prpg.uniform_sequence (Prng.create 11) ~bits ~length:512
         in
         Fsim.run ~ctx nl ~faults:p.Pipeline.faults ~sequence));
  let snap = Metrics.snapshot () in
  check_bool "exec.shard_seconds observed" true
    (List.mem_assoc "exec.shard_seconds" snap.Metrics.histograms);
  check_bool "exec.queue_wait_s observed" true
    (List.mem_assoc "exec.queue_wait_s" snap.Metrics.histograms)

let suite =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "map in index order" `Quick test_pool_map_in_index_order;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_pool_lowest_index_exception_wins;
        Alcotest.test_case "nested runs inline" `Quick test_pool_nested_runs_inline;
        Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
        Alcotest.test_case "chunk invariants" `Quick test_chunks_invariants;
        Alcotest.test_case "ticker counts in order" `Quick test_ticker_in_order;
      ] );
    ( "exec.differential",
      [
        Alcotest.test_case "fault simulation (c17/c432/b01/wide128)" `Quick
          test_fsim_differential;
        Alcotest.test_case "mutant execution (c17)" `Quick test_kill_differential;
        Alcotest.test_case "table1 campaign cells (c17)" `Quick
          test_table1_differential;
        Alcotest.test_case "equivalence classification (c17, b01)" `Quick
          (clean_obs test_classify_equivalents_differential);
        QCheck_alcotest.to_alcotest prop_fsim_random_jobs_identical;
        QCheck_alcotest.to_alcotest prop_chunks_partition;
      ] );
    ( "exec.robust",
      [
        Alcotest.test_case "budget exhaustion deterministic" `Quick
          (clean test_budget_exhaustion_deterministic);
        Alcotest.test_case "chaos in workers deterministic" `Quick
          (clean test_chaos_in_worker_deterministic);
        Alcotest.test_case "kill budget cut" `Quick (clean test_kill_budget_cut);
      ] );
    ( "exec.cliargs",
      [
        Alcotest.test_case "jobs spellings" `Quick test_cliargs_jobs_spellings;
        Alcotest.test_case "value and flag lookup" `Quick
          test_cliargs_value_and_flag;
      ] );
    ( "exec.obs",
      [
        Alcotest.test_case "worker spans merged at join" `Quick
          (clean_obs test_worker_spans_merged);
        Alcotest.test_case "profile self times within wall" `Quick
          (clean_obs test_profile_self_within_wall);
        Alcotest.test_case "logical metrics identical across jobs" `Quick
          (clean_obs test_metrics_identical_across_jobs);
        Alcotest.test_case "equivalence metrics identical across jobs" `Quick
          (clean_obs test_equivalence_metrics_identical_across_jobs);
        Alcotest.test_case "exec histograms recorded on pool path" `Quick
          (clean_obs test_exec_histograms_recorded);
      ] );
  ]
