(* Tests for lib/robust and its integration across the pipeline:
   budgets, typed errors, chaos injection and containment, graceful
   degradation and atomic artifact writes. The
   invariant under test throughout: every stage either succeeds,
   degrades with a recorded downgrade, or returns a typed error — an
   armed injection point never escapes as an uncaught exception. *)

module Budget = Mutsamp_robust.Budget
module Rerror = Mutsamp_robust.Error
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Atomicio = Mutsamp_robust.Atomicio
module Json = Mutsamp_obs.Json
module Metrics = Mutsamp_obs.Metrics
module Runreport = Mutsamp_obs.Runreport
module Cnf = Mutsamp_sat.Cnf
module Solver = Mutsamp_sat.Solver
module Podem = Mutsamp_atpg.Podem
module Topoff = Mutsamp_atpg.Topoff
module Collapse = Mutsamp_fault.Collapse
module Fsim = Mutsamp_fault.Fsim
module Prpg = Mutsamp_atpg.Prpg
module Prng = Mutsamp_util.Prng
module Benchfmt = Mutsamp_netlist.Benchfmt
module Parser = Mutsamp_hdl.Parser
module Flow = Mutsamp_synth.Flow
module Registry = Mutsamp_circuits.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Chaos armings and the degradation record are process-global; every
   test starts clean and leaves nothing armed for the rest of the
   suite. *)
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

let circuit name =
  match Registry.find name with
  | Some e -> Flow.synthesize (e.Registry.design ())
  | None -> Alcotest.failf "circuit %s not in registry" name

(* ------------------------------------------------------------------ *)
(* Budget                                                             *)
(* ------------------------------------------------------------------ *)

let test_budget_unlimited () =
  check_bool "unlimited" true (Budget.is_unlimited Budget.unlimited);
  (match Budget.spend Budget.unlimited ~stage:Rerror.Sat Budget.Sat_conflicts 1_000_000 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "unlimited budget exhausted");
  check_int "remaining is max_int" max_int
    (Budget.remaining Budget.unlimited Budget.Sat_conflicts)

let test_budget_quota () =
  let b = Budget.create ~sat_conflicts:10 () in
  check_bool "not unlimited" false (Budget.is_unlimited b);
  (match Budget.spend b ~stage:Rerror.Sat Budget.Sat_conflicts 7 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "spend within quota failed");
  check_int "remaining after spend" 3 (Budget.remaining b Budget.Sat_conflicts);
  (match Budget.spend b ~stage:Rerror.Sat Budget.Sat_conflicts 4 with
   | Error (Rerror.Budget_exhausted { stage = Rerror.Sat; resource }) ->
     check_string "resource name" "sat_conflicts" resource
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok () -> Alcotest.fail "overdraw succeeded");
  (* The failing spend must not go negative. *)
  check_int "remaining unchanged after failed spend" 3
    (Budget.remaining b Budget.Sat_conflicts);
  (* Other resources stay unlimited. *)
  (match Budget.spend b ~stage:Rerror.Podem Budget.Podem_backtracks 1_000_000 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "unrelated resource exhausted")

let test_budget_deadline () =
  let b = Budget.create ~deadline_ms:1 () in
  Unix.sleepf 0.01;
  (match Budget.check_deadline b ~stage:Rerror.Topoff with
   | Error (Rerror.Timeout Rerror.Topoff) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok () -> Alcotest.fail "deadline not detected");
  (* A far deadline passes. *)
  match Budget.check_deadline (Budget.create ~deadline_ms:60_000 ()) ~stage:Rerror.Topoff with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "future deadline reported expired"

let test_budget_json () =
  (match Budget.to_json Budget.unlimited with
   | Json.Obj fields ->
     List.iter
       (fun (k, v) -> check_bool (k ^ " null when unlimited") true (v = Json.Null))
       fields
   | _ -> Alcotest.fail "budget json not an object");
  match Budget.to_json (Budget.create ~deadline_ms:500 ~sat_conflicts:9 ()) with
  | Json.Obj fields ->
    check_bool "deadline rendered" true
      (List.assoc_opt "deadline_ms" fields = Some (Json.Int 500));
    check_bool "quota rendered" true
      (List.assoc_opt "sat_conflicts_remaining" fields = Some (Json.Int 9))
  | _ -> Alcotest.fail "budget json not an object"

let test_ambient_budget () =
  let b = Budget.create ~sat_conflicts:5 () in
  Budget.set_ambient b;
  check_bool "ambient returns the installed budget" true (Budget.ambient () == b);
  Budget.set_ambient Budget.unlimited;
  check_bool "ambient restored" true (Budget.is_unlimited (Budget.ambient ()))

let test_exit_codes_distinct () =
  let errors =
    [
      Rerror.Timeout Rerror.Sat;
      Rerror.Budget_exhausted { stage = Rerror.Sat; resource = "sat_conflicts" };
      Rerror.Parse_error { loc = { Rerror.file = None; line = None }; msg = "x" };
      Rerror.Aborted Rerror.Podem;
      Rerror.Injected Rerror.Pipeline;
      Rerror.Io_error "x";
    ]
  in
  let codes = List.map Rerror.exit_code errors in
  check_int "six distinct nonzero codes" 6
    (List.length (List.sort_uniq compare codes));
  List.iter (fun c -> check_bool "nonzero" true (c <> 0)) codes;
  (* Every class renders to a non-empty one-liner. *)
  List.iter
    (fun e ->
      let s = Rerror.to_string e in
      check_bool "non-empty message" true (String.length s > 0);
      check_bool "one line" true (not (String.contains s '\n')))
    errors

(* ------------------------------------------------------------------ *)
(* Budgets inside the engines                                         *)
(* ------------------------------------------------------------------ *)

(* Two-variable UNSAT core: refuting it forces conflicts, so a
   zero-conflict budget must trip. *)
let unsat_cnf () =
  let cnf = Cnf.create () in
  let a = Cnf.new_var cnf and b = Cnf.new_var cnf in
  Cnf.add_clause cnf [ a; b ];
  Cnf.add_clause cnf [ a; Cnf.neg b ];
  Cnf.add_clause cnf [ Cnf.neg a; b ];
  Cnf.add_clause cnf [ Cnf.neg a; Cnf.neg b ];
  cnf

let test_solver_budget () =
  (match Solver.solve ~budget:Budget.unlimited (unsat_cnf ()) with
   | Ok Solver.Unsat -> ()
   | Ok (Solver.Sat _) -> Alcotest.fail "unsat core declared sat"
   | Error e -> Alcotest.failf "unlimited solve errored: %s" (Rerror.to_string e));
  match Solver.solve ~budget:(Budget.create ~sat_conflicts:0 ()) (unsat_cnf ()) with
  | Error (Rerror.Budget_exhausted { stage = Rerror.Sat; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
  | Ok _ -> Alcotest.fail "zero-conflict budget not enforced"

let test_podem_budget () =
  (* c499's XOR trees force PODEM to backtrack; with a zero-backtrack
     budget at least one fault must report exhaustion — and never a
     spurious untestability proof. *)
  let nl = circuit "c499" in
  let faults = (Collapse.run nl).Collapse.representatives in
  let podem = Podem.prepare nl in
  let budget_errors = ref 0 in
  List.iter
    (fun f ->
      let b = Budget.create ~podem_backtracks:0 () in
      match Podem.find_test ~budget:b podem f with
      | Ok (Some _, _) -> ()
      | Ok (None, _) -> Alcotest.fail "untestability 'proved' under a zero budget"
      | Error (Rerror.Budget_exhausted { stage = Rerror.Podem; _ }) ->
        incr budget_errors
      | Error (Rerror.Aborted Rerror.Podem) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Rerror.to_string e))
    faults;
  check_bool "some fault needed backtracks" true (!budget_errors > 0)

let test_fsim_budget_degrades () =
  Degrade.reset ();
  let nl = circuit "c432" in
  let faults = (Collapse.run nl).Collapse.representatives in
  let bits = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
  let patterns = Prpg.uniform_sequence (Prng.create 7) ~bits ~length:64 in
  let ctx_with b = { Mutsamp_exec.Ctx.default with budget = Some b } in
  let full =
    Fsim.run ~ctx:(ctx_with Budget.unlimited) nl ~faults ~sequence:patterns
  in
  (* A one-pair budget stops the run almost immediately: the report is
     partial (never over-reports) and the cut is on record. *)
  let cut =
    Fsim.run
      ~ctx:(ctx_with (Budget.create ~fsim_pairs:1 ()))
      nl ~faults ~sequence:patterns
  in
  check_int "fault universe unchanged" full.Fsim.total cut.Fsim.total;
  check_bool "partial detection" true (cut.Fsim.detected < full.Fsim.detected);
  check_bool "degradation recorded" true
    (List.mem "fsim" (Degrade.degraded_stages ()))

(* A conflict quota at half the unbudgeted spend cuts some exact
   equivalence checks, in Vectorgen's directed phase and in
   [classify_equivalents] alike. A cut check is counted under
   [equiv.unknown], leaves its mutant unknown (never equivalent) and is
   on record; the equivalents found are a subset of the exact ones, and
   each one the cut loses is counted under [equiv.<design>.undecided]. *)
let test_equivalence_budget_cut () =
  let module Vectorgen = Mutsamp_validation.Vectorgen in
  let module Pipeline = Mutsamp_core.Pipeline in
  let module Mutant = Mutsamp_mutation.Mutant in
  let module Ctx = Mutsamp_exec.Ctx in
  let p =
    match Registry.find "c432" with
    | Some e -> Pipeline.prepare (e.Registry.design ())
    | None -> Alcotest.fail "c432 missing"
  in
  let subset =
    List.filter
      (fun (m : Mutant.t) -> Mutsamp_mutation.Operator.(equal m.Mutant.op VR))
      p.Pipeline.mutants
  in
  let with_spend run =
    let quota = 1_000_000 in
    let probe = Budget.create ~sat_conflicts:quota () in
    let r = run probe in
    (r, quota - Budget.remaining probe Budget.Sat_conflicts)
  in
  let unknowns () =
    Option.value ~default:0
      (List.assoc_opt "equiv.unknown" (Metrics.snapshot ()).Metrics.counters)
  in
  let subset_of small big = List.for_all (fun i -> List.mem i big) small in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let generate budget = Vectorgen.generate ~budget p.Pipeline.design subset in
  let full, spent = with_spend generate in
  check_bool "exact run not degraded" false (Degrade.any ());
  check_bool "exact run decides every survivor" true (full.Vectorgen.unknown = []);
  check_int "exact run counts no unknown" 0 (unknowns ());
  check_bool "directed phase spends conflicts" true (spent > 1);
  let cut = generate (Budget.create ~sat_conflicts:(spent / 2) ()) in
  check_bool "some checks cut" true (cut.Vectorgen.unknown <> []);
  check_int "every cut counted" (List.length cut.Vectorgen.unknown) (unknowns ());
  check_bool "cut equivalents left unknown" true
    (List.for_all
       (fun i -> List.mem i cut.Vectorgen.equivalent || List.mem i cut.Vectorgen.unknown)
       full.Vectorgen.equivalent);
  check_bool "equivalents subset" true
    (subset_of cut.Vectorgen.equivalent full.Vectorgen.equivalent);
  check_bool "cut listed" true
    (List.mem "sat attack cut short; mutant left unknown" cut.Vectorgen.degraded);
  Degrade.reset ();
  Metrics.reset ();
  let classify budget =
    Pipeline.classify_equivalents ~ctx:(Ctx.make ~budget ()) ~seed:3 p
  in
  let undecided () =
    Option.value ~default:0
      (List.assoc_opt "equiv.c432.undecided" (Metrics.snapshot ()).Metrics.counters)
  in
  let full_eq, spent = with_spend classify in
  check_bool "exact classification not degraded" false (Degrade.any ());
  check_bool "classification finds equivalents" true (full_eq <> []);
  check_int "exact classification leaves none undecided" 0 (undecided ());
  let cut_eq = classify (Budget.create ~sat_conflicts:(spent / 2) ()) in
  check_bool "classification equivalents subset" true (subset_of cut_eq full_eq);
  check_bool "fewer equivalents" true (List.length cut_eq < List.length full_eq);
  check_bool "classification cut counted" true (unknowns () >= 1);
  check_bool "every lost equivalent undecided" true
    (undecided () >= List.length full_eq - List.length cut_eq);
  check_bool "equivalence degradation recorded" true
    (List.mem "equivalence" (Degrade.degraded_stages ()))

(* ------------------------------------------------------------------ *)
(* Chaos: injection and containment                                   *)
(* ------------------------------------------------------------------ *)

let test_chaos_timeout_contained () =
  Chaos.arm Chaos.Sat_solve Chaos.Timeout;
  match Solver.solve (unsat_cnf ()) with
  | Error (Rerror.Timeout Rerror.Sat) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
  | Ok _ -> Alcotest.fail "armed timeout did not fire"

let test_chaos_exception_contained () =
  Chaos.arm Chaos.Sat_solve Chaos.Exception;
  match Solver.solve (unsat_cnf ()) with
  | Error (Rerror.Injected Rerror.Sat) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
  | Ok _ -> Alcotest.fail "armed exception did not fire"

let test_chaos_after_count () =
  Chaos.arm ~after:2 Chaos.Sat_solve Chaos.Timeout;
  check_bool "first hit passes" true (Chaos.fire Chaos.Sat_solve = None);
  check_bool "second hit passes" true (Chaos.fire Chaos.Sat_solve = None);
  check_bool "third hit fires" true (Chaos.fire Chaos.Sat_solve = Some Chaos.Timeout);
  check_bool "stays armed" true (Chaos.fire Chaos.Sat_solve = Some Chaos.Timeout)

let test_chaos_spec_parsing () =
  (match Chaos.parse_spec "sat:timeout" with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "valid spec rejected: %s" msg);
  check_bool "armed by spec" true (Chaos.any_armed ());
  Chaos.disarm_all ();
  (match Chaos.parse_spec "report:truncate=16" with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "valid spec rejected: %s" msg);
  (match Chaos.parse_spec "podem:exn@3" with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "valid spec rejected: %s" msg);
  List.iter
    (fun bad ->
      match Chaos.parse_spec bad with
      | Ok () -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ "bogus:timeout"; "sat:frobnicate"; "sat"; "sat:truncate=x"; "" ]

let test_topoff_degrades_under_chaos () =
  Degrade.reset ();
  Chaos.arm Chaos.Sat_solve Chaos.Timeout;
  let nl = circuit "c432" in
  let faults = (Collapse.run nl).Collapse.representatives in
  (* The deterministic phase dies instantly; the run must still return
     a report, fall back to random top-off and say so. *)
  let r = Topoff.run ~generator:Topoff.Use_sat ~seed:3 nl ~faults ~seed_patterns:[||] in
  check_bool "degraded flagged" true r.Topoff.degraded;
  check_bool "fallback rounds ran" true (r.Topoff.degraded_retries > 0);
  check_bool "degradation recorded" true
    (List.mem "topoff" (Degrade.degraded_stages ()));
  check_bool "retries counted" true (Degrade.retries () > 0);
  (* Every fault is accounted for. *)
  check_int "accounting" r.Topoff.total_faults
    (r.Topoff.seed_detected + r.Topoff.random_detected + r.Topoff.atpg_detected
     + r.Topoff.degraded_detected + r.Topoff.untestable + r.Topoff.aborted)

let test_topoff_default_budget_unchanged () =
  (* Same seed, no chaos, unlimited budget: the degradation machinery
     must be invisible. *)
  let nl = circuit "c17" in
  let faults = (Collapse.run nl).Collapse.representatives in
  let r = Topoff.run ~seed:3 nl ~faults ~seed_patterns:[||] in
  check_bool "not degraded" false r.Topoff.degraded;
  check_int "no fallback rounds" 0 r.Topoff.degraded_retries;
  check_bool "nothing recorded" false (Degrade.any ())

(* ------------------------------------------------------------------ *)
(* Parsers: typed results, no escaping exceptions                     *)
(* ------------------------------------------------------------------ *)

let test_benchfmt_typed_errors () =
  (match Benchfmt.parse ~file:"x.bench" "G1 = FROB(G2)\n" with
   | Error (Rerror.Parse_error { loc; _ }) ->
     check_bool "file recorded" true (loc.Rerror.file = Some "x.bench")
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok _ -> Alcotest.fail "garbage accepted");
  (* Line numbers survive into the location. *)
  (match Benchfmt.parse "INPUT(a)\nnonsense\n" with
   | Error (Rerror.Parse_error { loc; _ }) ->
     check_bool "line recovered" true (loc.Rerror.line = Some 2)
   | _ -> Alcotest.fail "expected a located parse error");
  (* Combinational cycles are a parse error, not a stack overflow. *)
  (match Benchfmt.parse "INPUT(b)\nOUTPUT(a)\na = AND(a, b)\n" with
   | Error (Rerror.Parse_error _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok _ -> Alcotest.fail "cyclic netlist accepted");
  (* A valid netlist still parses. *)
  match Benchfmt.parse (Benchfmt.to_string (circuit "c17")) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid netlist rejected: %s" (Rerror.to_string e)

let test_benchfmt_missing_file () =
  match Benchfmt.read_file_result "/nonexistent/definitely/missing.bench" with
  | Error (Rerror.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
  | Ok _ -> Alcotest.fail "missing file read"

let test_hdl_typed_errors () =
  (match Parser.design_result "design d is begin x := end design;" with
   | Error (Rerror.Parse_error { loc; _ }) ->
     check_bool "line recovered" true (loc.Rerror.line <> None)
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok _ -> Alcotest.fail "garbage accepted");
  (* Lexer failures take the same typed path — including the numeric
     overflow that used to raise [Failure]. *)
  (match Parser.design_result "design d is var x : bit; begin x := 99999999999999999999999; end design;" with
   | Error (Rerror.Parse_error _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok _ -> Alcotest.fail "overflowing literal accepted");
  match Parser.design_result "design d is input a : bit; output y : bit; begin y := not a; end design;" with
  | Ok d -> check_string "design parsed" "d" d.Mutsamp_hdl.Ast.name
  | Error e -> Alcotest.failf "valid design rejected: %s" (Rerror.to_string e)

let test_chaos_parse_point () =
  Chaos.arm Chaos.Parse_input Chaos.Exception;
  (match Benchfmt.parse "INPUT(a)\nOUTPUT(a)\n" with
   | Error (Rerror.Injected Rerror.Parse) -> ()
   | _ -> Alcotest.fail "injected parse failure not contained");
  match Parser.design_result "design d is begin null; end design;" with
  | Error (Rerror.Injected Rerror.Parse) -> ()
  | _ -> Alcotest.fail "injected parse failure not contained (hdl)"

(* Fuzz: arbitrary bytes — random garbage and corrupted/truncated valid
   sources — must yield Ok or a typed Error, never an exception. QCheck
   reports any escaping exception as a failure. *)
let fuzz_tests =
  let bench_src = Benchfmt.to_string (circuit "c17") in
  let hdl_src =
    "design d is input a : bit; input b : bit; output y : bit; begin y := a and b; end design;"
  in
  let corrupt src (cut, flip_at, flip_to) =
    let cut = cut mod (String.length src + 1) in
    let s = Bytes.of_string (String.sub src 0 cut) in
    if Bytes.length s > 0 then
      Bytes.set s (flip_at mod Bytes.length s) (Char.chr (flip_to land 0xff));
    Bytes.to_string s
  in
  let gen = QCheck.Gen.(triple small_nat small_nat (int_bound 255)) in
  [
    QCheck.Test.make ~name:"Benchfmt.parse total on random bytes" ~count:200
      (QCheck.make QCheck.Gen.(string_size (int_bound 120)))
      (fun s ->
        (match Benchfmt.parse s with Ok _ | Error _ -> ());
        true);
    QCheck.Test.make ~name:"Benchfmt.parse total on corrupted .bench" ~count:200
      (QCheck.make gen)
      (fun c ->
        (match Benchfmt.parse (corrupt bench_src c) with Ok _ | Error _ -> ());
        true);
    QCheck.Test.make ~name:"Parser.design_result total on random bytes" ~count:200
      (QCheck.make QCheck.Gen.(string_size (int_bound 120)))
      (fun s ->
        (match Parser.design_result s with Ok _ | Error _ -> ());
        true);
    QCheck.Test.make ~name:"Parser.design_result total on corrupted source"
      ~count:200 (QCheck.make gen)
      (fun c ->
        (match Parser.design_result (corrupt hdl_src c) with Ok _ | Error _ -> ());
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                      *)
(* ------------------------------------------------------------------ *)

let temp_path () =
  let path = Filename.temp_file "mutsamp_robust" ".json" in
  path

let test_atomic_write () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Atomicio.write_file path "first version" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write failed: %s" (Rerror.to_string e));
  (* An injected truncation fails the write and leaves the previous
     contents (and no temp litter) behind. *)
  Chaos.arm Chaos.Report_write (Chaos.Truncate 4);
  (match Atomicio.write_file path "second version, much longer" with
   | Error (Rerror.Io_error _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
   | Ok () -> Alcotest.fail "truncated write reported success");
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "original intact" "first version" contents;
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      check_bool "no temp litter" false
        (String.length f > String.length base
         && String.sub f 0 (String.length base) = base))
    (Sys.readdir dir);
  (* Disarmed, the replacement goes through. *)
  Chaos.disarm_all ();
  (match Atomicio.write_file path "second version" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write failed: %s" (Rerror.to_string e));
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "replaced" "second version" contents

(* Fuzz: an interrupted write — truncated after an arbitrary byte
   count, or killed by an injected exception — must never corrupt the
   destination (the previous contents stay readable, byte for byte) and
   must never leave temp litter in the directory. A retry after the
   fault clears must fully replace the file. *)
let atomicio_fuzz_tests =
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic)
    @@ fun () -> really_input_string ic (in_channel_length ic)
  in
  let tmp_litter path =
    let dir = Filename.dirname path and base = Filename.basename path in
    Array.exists
      (fun f ->
        String.length f > String.length base
        && String.sub f 0 (String.length base) = base)
      (Sys.readdir dir)
  in
  let with_seeded_file old_contents f =
    let path = Filename.temp_file "mutsamp_atomicio" ".json" in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    (match Atomicio.write_file path old_contents with
     | Ok () -> ()
     | Error e -> Alcotest.failf "seed write failed: %s" (Rerror.to_string e));
    f path
  in
  let gen =
    QCheck.Gen.(
      triple (string_size (int_bound 80)) (string_size (int_bound 80)) small_nat)
  in
  [
    QCheck.Test.make ~count:100
      ~name:"Atomicio: torn write leaves old contents and no litter"
      (QCheck.make gen)
      (fun (old_c, new_c, cut) ->
        with_seeded_file old_c @@ fun path ->
        Chaos.disarm_all ();
        Chaos.arm Chaos.Report_write (Chaos.Truncate cut);
        let r = Atomicio.write_file path new_c in
        Chaos.disarm_all ();
        (match r with
         | Error (Rerror.Io_error _) -> ()
         | Error e -> Alcotest.failf "wrong error: %s" (Rerror.to_string e)
         | Ok () -> Alcotest.fail "torn write reported success");
        read_all path = old_c && not (tmp_litter path));
    QCheck.Test.make ~count:100
      ~name:"Atomicio: injected exception leaves destination intact"
      (QCheck.make gen)
      (fun (old_c, new_c, _) ->
        with_seeded_file old_c @@ fun path ->
        Chaos.disarm_all ();
        Chaos.arm Chaos.Report_write Chaos.Exception;
        let raised =
          try
            ignore (Atomicio.write_file path new_c);
            false
          with Chaos.Injected _ -> true
        in
        Chaos.disarm_all ();
        raised && read_all path = old_c && not (tmp_litter path));
    QCheck.Test.make ~count:100
      ~name:"Atomicio: retry after a torn write converges"
      (QCheck.make gen)
      (fun (old_c, new_c, cut) ->
        with_seeded_file old_c @@ fun path ->
        Chaos.disarm_all ();
        Chaos.arm Chaos.Report_write (Chaos.Truncate cut);
        (match Atomicio.write_file path new_c with Ok () | Error _ -> ());
        Chaos.disarm_all ();
        (match Atomicio.write_file path new_c with
         | Ok () -> ()
         | Error e -> Alcotest.failf "retry failed: %s" (Rerror.to_string e));
        read_all path = new_c && not (tmp_litter path));
  ]

(* ------------------------------------------------------------------ *)
(* Run reports under degradation                                      *)
(* ------------------------------------------------------------------ *)

let test_degraded_report_validates () =
  Degrade.reset ();
  Degrade.note ~stage:Rerror.Topoff ~detail:"random fallback"
    (Rerror.Timeout Rerror.Sat);
  Degrade.retry ~stage:Rerror.Topoff;
  let budget = Budget.create ~deadline_ms:100 ~sat_conflicts:50 () in
  let robust =
    match Degrade.to_json () with
    | Json.Obj fields -> Json.Obj (fields @ [ ("budget", Budget.to_json budget) ])
    | other -> other
  in
  let report =
    Runreport.make ~command:"test" ~circuits:[ "c17" ] ~seed:7
      ~extra:[ ("robust", robust) ]
      ~spans:[] ~metrics:(Metrics.snapshot ()) ()
  in
  (match Runreport.validate report with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "degraded report rejected by schema: %s" msg);
  (* The robust section carries the downgrade. *)
  match Json.member "robust" report with
  | Some robust ->
    (match Json.member "degraded_stages" robust with
     | Some (Json.List [ Json.String "topoff" ]) -> ()
     | _ -> Alcotest.fail "degraded_stages missing or wrong");
    (match Json.member "retries" robust with
     | Some (Json.Int 1) -> ()
     | _ -> Alcotest.fail "retries missing or wrong")
  | None -> Alcotest.fail "robust section missing"

let test_degrade_record () =
  Degrade.reset ();
  check_bool "clean" false (Degrade.any ());
  Degrade.note ~stage:Rerror.Fsim (Rerror.Timeout Rerror.Fsim);
  Degrade.note ~stage:Rerror.Fsim (Rerror.Timeout Rerror.Fsim);
  Degrade.note ~stage:Rerror.Kill
    (Rerror.Budget_exhausted { stage = Rerror.Kill; resource = "fsim_pairs" });
  Alcotest.(check (list string))
    "dedup in first-degradation order" [ "fsim"; "kill" ]
    (Degrade.degraded_stages ());
  check_int "all events kept" 3 (List.length (Degrade.events ()));
  Degrade.reset ();
  check_bool "reset clears" false (Degrade.any ())

(* ------------------------------------------------------------------ *)
(* Retry                                                              *)
(* ------------------------------------------------------------------ *)

module Retry = Mutsamp_robust.Retry

let no_sleep _ = ()

let test_retry_scale_schedule () =
  let p = Retry.policy ~base_scale:1 ~scale_multiplier:2.0 () in
  check_int "attempt 1" 1 (Retry.scale_at p ~attempt:1);
  check_int "attempt 2" 2 (Retry.scale_at p ~attempt:2);
  check_int "attempt 3" 4 (Retry.scale_at p ~attempt:3);
  let flat = Retry.policy ~base_scale:3 ~scale_multiplier:1.0 () in
  check_int "flat schedule" 3 (Retry.scale_at flat ~attempt:5)

let test_retry_delay_schedule () =
  let p =
    Retry.policy ~base_delay_ms:100. ~delay_multiplier:2.0 ~max_delay_ms:250.
      ~jitter:0. ()
  in
  Alcotest.(check (float 0.001)) "no delay before attempt 1" 0.
    (Retry.delay_ms_at p ~attempt:1);
  Alcotest.(check (float 0.001)) "base before attempt 2" 100.
    (Retry.delay_ms_at p ~attempt:2);
  Alcotest.(check (float 0.001)) "doubled" 200. (Retry.delay_ms_at p ~attempt:3);
  Alcotest.(check (float 0.001)) "capped" 250. (Retry.delay_ms_at p ~attempt:4);
  (* Jitter only ever shortens the delay, never lengthens it. *)
  let j = { p with Retry.jitter = 0.5 } in
  let prng = Prng.create 7 in
  for attempt = 2 to 6 do
    let d = Retry.delay_ms_at ~prng j ~attempt in
    let nominal = Retry.delay_ms_at p ~attempt in
    check_bool "jittered within [nominal/2, nominal]" true
      (d >= (nominal /. 2.) -. 0.001 && d <= nominal +. 0.001)
  done

let test_retry_succeeds_midway () =
  let calls = ref [] in
  let o =
    Retry.run ~policy:(Retry.policy ~max_attempts:5 ()) ~sleep:no_sleep
      ~stage:Rerror.Topoff
      (fun ~attempt ~scale ->
        calls := (attempt, scale) :: !calls;
        if attempt = 3 then Ok "done" else Error "not yet")
  in
  (match o.Retry.result with
   | Ok v -> check_string "value" "done" v
   | Error _ -> Alcotest.fail "expected success");
  check_int "attempts entered" 3 o.Retry.attempts;
  Alcotest.(check (list (pair int int)))
    "geometric work schedule" [ (1, 1); (2, 2); (3, 4) ] (List.rev !calls);
  (* Every attempt entered is one Degrade.retry under the stage. *)
  check_int "robust.retries" 3 (Degrade.retries ())

let test_retry_exhaustion () =
  let o =
    Retry.run ~policy:(Retry.policy ~max_attempts:3 ()) ~sleep:no_sleep
      ~stage:Rerror.Serve
      (fun ~attempt:_ ~scale:_ -> Error "still broken")
  in
  (match o.Retry.result with
   | Error (Retry.Exhausted reason) ->
     check_string "last reason" "still broken" reason
   | _ -> Alcotest.fail "expected exhaustion");
  check_int "all attempts entered" 3 o.Retry.attempts

let test_retry_budget_cut () =
  let budget = Budget.create ~deadline_ms:3_600_000 () in
  Budget.expire budget;
  let entered = ref 0 in
  let o =
    Retry.run ~policy:(Retry.policy ~max_attempts:5 ()) ~sleep:no_sleep ~budget
      ~stage:Rerror.Serve
      (fun ~attempt:_ ~scale:_ ->
        incr entered;
        Error "x")
  in
  (match o.Retry.result with
   | Error (Retry.Budget_cut (Rerror.Timeout _)) -> ()
   | _ -> Alcotest.fail "expected a budget cut");
  check_int "cut before the first attempt" 0 o.Retry.attempts;
  check_int "body never ran" 0 !entered

let test_budget_expire () =
  let b = Budget.create ~deadline_ms:3_600_000 () in
  (match Budget.check_deadline b ~stage:Rerror.Serve with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "fresh deadline must pass");
  check_bool "remaining before expiry" true
    (match Budget.deadline_remaining_ms b with Some ms -> ms > 0 | None -> false);
  Budget.expire b;
  (match Budget.check_deadline b ~stage:Rerror.Serve with
   | Error (Rerror.Timeout Rerror.Serve) -> ()
   | _ -> Alcotest.fail "expired deadline must fail");
  check_int "remaining clamps at zero"
    0 (Option.value ~default:(-1) (Budget.deadline_remaining_ms b));
  (* Shards made by split share the parent's deadline cell. *)
  let parent = Budget.create ~deadline_ms:3_600_000 () in
  let shards = Budget.split parent 3 in
  Budget.expire parent;
  Array.iter
    (fun shard ->
      match Budget.check_deadline shard ~stage:Rerror.Serve with
      | Error (Rerror.Timeout _) -> ()
      | _ -> Alcotest.fail "shard must see the parent's expiry")
    shards;
  (* Expiring a derived handle never poisons the shared unlimited
     budget. *)
  Budget.expire Budget.unlimited;
  match Budget.check_deadline Budget.unlimited ~stage:Rerror.Serve with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unlimited must be immune to expire"

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "robust.retry",
      [
        Alcotest.test_case "scale schedule" `Quick (clean test_retry_scale_schedule);
        Alcotest.test_case "delay schedule" `Quick (clean test_retry_delay_schedule);
        Alcotest.test_case "succeeds midway" `Quick (clean test_retry_succeeds_midway);
        Alcotest.test_case "exhaustion" `Quick (clean test_retry_exhaustion);
        Alcotest.test_case "budget cut" `Quick (clean test_retry_budget_cut);
        Alcotest.test_case "budget expire" `Quick (clean test_budget_expire);
      ] );
    ( "robust.budget",
      [
        Alcotest.test_case "unlimited budget" `Quick (clean test_budget_unlimited);
        Alcotest.test_case "quota accounting" `Quick (clean test_budget_quota);
        Alcotest.test_case "deadline" `Quick (clean test_budget_deadline);
        Alcotest.test_case "json rendering" `Quick (clean test_budget_json);
        Alcotest.test_case "ambient install" `Quick (clean test_ambient_budget);
        Alcotest.test_case "exit codes distinct" `Quick (clean test_exit_codes_distinct);
      ] );
    ( "robust.engines",
      [
        Alcotest.test_case "solver conflict budget" `Quick (clean test_solver_budget);
        Alcotest.test_case "podem backtrack budget" `Quick (clean test_podem_budget);
        Alcotest.test_case "fsim pair budget degrades" `Quick
          (clean test_fsim_budget_degrades);
        Alcotest.test_case "equivalence conflict budget" `Quick
          (clean test_equivalence_budget_cut);
      ] );
    ( "robust.chaos",
      [
        Alcotest.test_case "timeout contained" `Quick (clean test_chaos_timeout_contained);
        Alcotest.test_case "exception contained" `Quick
          (clean test_chaos_exception_contained);
        Alcotest.test_case "after count" `Quick (clean test_chaos_after_count);
        Alcotest.test_case "spec parsing" `Quick (clean test_chaos_spec_parsing);
        Alcotest.test_case "topoff degrades under chaos" `Quick
          (clean test_topoff_degrades_under_chaos);
        Alcotest.test_case "default budget unchanged" `Quick
          (clean test_topoff_default_budget_unchanged);
      ] );
    ( "robust.parsers",
      [
        Alcotest.test_case "benchfmt typed errors" `Quick (clean test_benchfmt_typed_errors);
        Alcotest.test_case "benchfmt missing file" `Quick (clean test_benchfmt_missing_file);
        Alcotest.test_case "hdl typed errors" `Quick (clean test_hdl_typed_errors);
        Alcotest.test_case "chaos parse point" `Quick (clean test_chaos_parse_point);
      ]
      @ List.map q fuzz_tests );
    ( "robust.artifacts",
      [
        Alcotest.test_case "atomic write truncation" `Quick (clean test_atomic_write);
        Alcotest.test_case "degraded report validates" `Quick
          (clean test_degraded_report_validates);
        Alcotest.test_case "degrade record" `Quick (clean test_degrade_record);
      ]
      @ List.map q atomicio_fuzz_tests );
  ]
