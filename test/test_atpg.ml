(* Tests for lib/atpg: five-valued algebra, PODEM, SAT-ATPG, LFSR,
   full-scan, top-off flow. The strongest checks are the cross-engine
   agreements: PODEM and SAT-ATPG must agree on testability, and every
   generated test must actually detect its target under fault
   simulation. *)

module Prng = Mutsamp_util.Prng
module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module B = Netlist.Builder
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Inject = Mutsamp_fault.Inject
module V = Mutsamp_atpg.Fivevalued
module Podem = Mutsamp_atpg.Podem
module Satgen = Mutsamp_atpg.Satgen
module Prpg = Mutsamp_atpg.Prpg
module Scan = Mutsamp_atpg.Scan
module Topoff = Mutsamp_atpg.Topoff
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Flow = Mutsamp_synth.Flow
module Registry = Mutsamp_circuits.Registry
module Pipeline = Mutsamp_core.Pipeline
module Collapse = Mutsamp_fault.Collapse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let ok_exn = Mutsamp_robust.Error.ok_exn

let full_adder () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

(* A netlist with a redundant (untestable) fault: y = a or (a and b).
   The AND gate is functionally redundant, so its b-input stuck-at-0 is
   untestable. *)
let redundant_netlist () =
  let b = B.create "red" in
  let a = B.input b "a" and bb = B.input b "bb" in
  (* Defeat the builder's simplifications with a manually built gate
     arrangement: or(a, and(a, bb)) = a. *)
  let band = B.and_ b a bb in
  let y = B.or_ b a band in
  B.output b "y" y;
  B.finalize b

(* ------------------------------------------------------------------ *)
(* Fivevalued                                                         *)
(* ------------------------------------------------------------------ *)

let test_fv_projections () =
  check_bool "D good" true (V.good V.D = V.One);
  check_bool "D faulty" true (V.faulty V.D = V.Zero);
  check_bool "Dbar good" true (V.good V.Dbar = V.Zero);
  check_bool "combine" true (V.combine V.One V.Zero = V.D);
  check_bool "combine X" true (V.combine V.X V.Zero = V.X)

let test_fv_and_table () =
  check_bool "D and 1 = D" true (V.land_ V.D V.One = V.D);
  check_bool "D and 0 = 0" true (V.land_ V.D V.Zero = V.Zero);
  check_bool "D and D' = 0" true (V.land_ V.D V.Dbar = V.Zero);
  check_bool "D and X = X" true (V.land_ V.D V.X = V.X);
  check_bool "D and D = D" true (V.land_ V.D V.D = V.D)

let test_fv_not_or_xor () =
  check_bool "not D = D'" true (V.lnot V.D = V.Dbar);
  check_bool "D or D' = 1" true (V.lor_ V.D V.Dbar = V.One);
  check_bool "D xor D = 0" true (V.lxor_ V.D V.D = V.Zero);
  check_bool "D xor D' = 1" true (V.lxor_ V.D V.Dbar = V.One);
  check_bool "D xor 0 = D" true (V.lxor_ V.D V.Zero = V.D)

let test_fv_gate_eval () =
  check_bool "nand" true (V.eval Gate.Nand V.D V.One = V.Dbar);
  check_bool "nor" true (V.eval Gate.Nor V.Dbar V.Zero = V.D);
  check_bool "controlling and" true (V.controlling_value Gate.And = Some false);
  check_bool "controlling nor" true (V.controlling_value Gate.Nor = Some true);
  check_bool "xor no controlling" true (V.controlling_value Gate.Xor = None)

(* The gate table, entry by entry, against the lifted operators it is
   built from: every combinational kind over all 25 operand pairs
   (unary kinds ignore the second operand). *)
let test_fv_table_is_lifted () =
  let values = [ V.Zero; V.One; V.X; V.D; V.Dbar ] in
  let lifted kind a b =
    match kind with
    | Gate.Buf -> a
    | Gate.Not -> V.lnot a
    | Gate.And -> V.land_ a b
    | Gate.Or -> V.lor_ a b
    | Gate.Nand -> V.lnot (V.land_ a b)
    | Gate.Nor -> V.lnot (V.lor_ a b)
    | Gate.Xor -> V.lxor_ a b
    | Gate.Xnor -> V.lnot (V.lxor_ a b)
    | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> assert false
  in
  List.iter
    (fun kind ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let expected = lifted kind a b in
              let name =
                Printf.sprintf "%s %s %s" (Gate.kind_name kind) (V.to_string a)
                  (V.to_string b)
              in
              check_bool name true (V.eval kind a b = expected);
              check_bool (name ^ " table entry") true
                (V.table.((25 * V.row kind) + (5 * V.index a) + V.index b) = expected))
            values)
        values)
    [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ];
  List.iter
    (fun kind ->
      match V.eval kind V.One V.One with
      | _ -> Alcotest.fail ("evaluated " ^ Gate.kind_name kind)
      | exception Invalid_argument _ -> ())
    [ Gate.Pi "a"; Gate.Const true; Gate.Dff false ]

(* ------------------------------------------------------------------ *)
(* Podem                                                              *)
(* ------------------------------------------------------------------ *)

(* Oracle: does pattern [p] detect fault [f] on netlist [nl]? *)
let detects nl f p =
  let r = Fsim.run nl ~faults:[ f ] ~sequence:[| p |] in
  r.Fsim.detected = 1

let test_podem_finds_tests_full_adder () =
  let nl = full_adder () in
  let podem = Podem.prepare nl in
  List.iter
    (fun f ->
      match ok_exn (Podem.find_test podem f) with
      | Some p, _ ->
        check_bool
          (Printf.sprintf "test for %s detects" (Fault.to_string f))
          true (detects nl f p)
      | None, _ ->
        Alcotest.fail ("full adder fault should be testable: " ^ Fault.to_string f))
    (Fault.full_list nl)

let test_podem_untestable_redundant () =
  let nl = redundant_netlist () in
  (* Find the AND gate's bb-input fault: with single fanout of bb the
     stem fault bb SA0 is the redundant one. *)
  let bb = Ports.input nl "bb" in
  let f = { Fault.site = Fault.Stem bb; polarity = Fault.Stuck_at_0 } in
  (match ok_exn (Podem.find_test (Podem.prepare nl) f) with
   | None, _ -> ()
   | Some p, _ ->
     Alcotest.fail
       (Printf.sprintf "redundant fault got test %s (detects=%b)"
          (Mutsamp_fault.Pattern.to_string p) (detects nl f p)))

let test_podem_stats_populated () =
  let nl = full_adder () in
  let f = List.hd (Fault.full_list nl) in
  let _, stats = ok_exn (Podem.find_test (Podem.prepare nl) f) in
  check_bool "implications counted" true (stats.Podem.implications > 0)

let test_podem_rejects_sequential () =
  let b = B.create "seq" in
  let x = B.input b "x" in
  let q = B.dff b ~init:false in
  B.connect_dff b q ~d:x;
  B.output b "y" q;
  let nl = B.finalize b in
  (try
     ignore (Podem.prepare nl);
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

(* The search path itself, pinned over all of a circuit's collapsed
   faults at the A3 ablation's backtrack limit (EXPERIMENTS.md): test,
   untestable and abort counts, and the summed backtracks and
   implications of the calls that finished. A change to PODEM's
   per-step work must leave every decision, and so every total, as it
   is. *)
let search_totals podem faults guided =
  List.fold_left
    (fun (tests, untestable, aborted, bt, impl) f ->
      match Podem.find_test ~backtrack_limit:2000 ~guided podem f with
      | Ok (Some _, s) ->
        (tests + 1, untestable, aborted, bt + s.Podem.backtracks, impl + s.Podem.implications)
      | Ok (None, s) ->
        (tests, untestable + 1, aborted, bt + s.Podem.backtracks, impl + s.Podem.implications)
      | Error _ -> (tests, untestable, aborted + 1, bt, impl))
    (0, 0, 0, 0, 0) faults

let expect_search_path nl faults ~guided:g ~unguided:u =
  let podem = Podem.prepare nl in
  let expect mode (tests, untestable, aborted, bt, impl) guided =
    let t, un, a, b, i = search_totals podem faults guided in
    check_int (mode ^ " tests") tests t;
    check_int (mode ^ " untestable") untestable un;
    check_int (mode ^ " aborted") aborted a;
    check_int (mode ^ " backtracks") bt b;
    check_int (mode ^ " implications") impl i
  in
  expect "guided" g true;
  expect "unguided" u false

let test_podem_search_path_c432 () =
  let p = Pipeline.prepare ((Option.get (Registry.find "c432")).Registry.design ()) in
  expect_search_path p.Pipeline.netlist p.Pipeline.faults
    ~guided:(370, 29, 23, 41_611, 130_092)
    ~unguided:(370, 29, 23, 54_601, 171_182)

(* c499 exercises the XOR/XNOR rows of the gate table; full-scan b03
   a netlist with scan inputs and outputs. *)
let registry_netlist ?(scan = false) name =
  let nl = Flow.synthesize ((Option.get (Registry.find name)).Registry.design ()) in
  let nl = if scan then Scan.full_scan nl else nl in
  (nl, (Collapse.run nl).Collapse.representatives)

let test_podem_search_path_c499 () =
  let nl, faults = registry_netlist "c499" in
  expect_search_path nl faults
    ~guided:(956, 0, 0, 1_316, 31_885)
    ~unguided:(956, 0, 0, 1_309, 33_899)

let test_podem_search_path_b03 () =
  let nl, faults = registry_netlist ~scan:true "b03" in
  expect_search_path nl faults
    ~guided:(453, 115, 0, 813, 5_776)
    ~unguided:(453, 115, 0, 776, 5_700)

(* One [prepared] value serves every call on its netlist: per-fault
   results (test bits, proof or abort, and search stats) are the same
   whether the faults run forward or in reverse through one shared
   value or each through a fresh one, so no search state leaks between
   calls. *)
let test_podem_prepared_reuse () =
  List.iter
    (fun name ->
      let nl, faults = registry_netlist name in
      let outcome podem f =
        match Podem.find_test ~backtrack_limit:200 podem f with
        | Ok (Some p, s) ->
          Printf.sprintf "test %s %d %d" (Pattern.to_string p) s.Podem.backtracks
            s.Podem.implications
        | Ok (None, s) ->
          Printf.sprintf "untestable %d %d" s.Podem.backtracks s.Podem.implications
        | Error e -> Mutsamp_robust.Error.to_string e
      in
      let fresh = List.map (fun f -> outcome (Podem.prepare nl) f) faults in
      let shared = Podem.prepare nl in
      let forward = List.map (outcome shared) faults in
      let reverse = List.rev (List.map (outcome shared) (List.rev faults)) in
      Alcotest.(check (list string)) (name ^ " forward") fresh forward;
      Alcotest.(check (list string)) (name ^ " reverse") fresh reverse)
    [ "c432"; "c499" ]

(* ------------------------------------------------------------------ *)
(* Satgen & cross-engine agreement                                    *)
(* ------------------------------------------------------------------ *)

let cross_check nl =
  let prepared = Podem.prepare nl in
  List.iter
    (fun f ->
      let podem = Podem.find_test prepared f in
      let sat = ok_exn (Satgen.generate nl f) in
      match podem, sat with
      | Ok (Some p, _), Satgen.Test q ->
        check_bool "podem test detects" true (detects nl f p);
        check_bool "sat test detects" true (detects nl f q)
      | Ok (None, _), Satgen.Untestable -> ()
      | Error _, _ -> ()  (* abort is inconclusive, not a disagreement *)
      | Ok (Some _, _), Satgen.Untestable ->
        Alcotest.fail ("engines disagree (podem testable): " ^ Fault.to_string f)
      | Ok (None, _), Satgen.Test _ ->
        Alcotest.fail ("engines disagree (sat testable): " ^ Fault.to_string f))
    (Fault.full_list nl)

(* SAT-ATPG's patterns, pinned: one line per collapsed fault (the test
   pattern, or "untestable"), digested. A pattern is the solver's model
   of the miter inputs, so a change to the miter's encoding or to how
   a model becomes a pattern moves it. *)
let test_satgen_pinned () =
  List.iter
    (fun (name, scan, digest) ->
      let nl, faults = registry_netlist ~scan name in
      let buf = Buffer.create 4096 in
      List.iter
        (fun f ->
          (match ok_exn (Satgen.generate nl f) with
           | Satgen.Test p -> Buffer.add_string buf (Pattern.to_string p)
           | Satgen.Untestable -> Buffer.add_string buf "untestable");
          Buffer.add_char buf '\n')
        faults;
      Alcotest.(check string) (name ^ " patterns") digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [ ("c432", false, "9d6d8af12cfa7c95b301a17bd0a6e1dd"); ("b03", true, "5c66606bd3ee1cae7a2b5c33596dab92") ]

let test_engines_agree_full_adder () = cross_check (full_adder ())

let test_engines_agree_redundant () = cross_check (redundant_netlist ())

let test_engines_agree_alu () =
  cross_check
    (Flow.synthesize
       (parse
          {|design alu is
  input a : unsigned(3);
  input b : unsigned(3);
  input op : bit;
  output y : unsigned(3);
begin
  if op = '1' then
    y := a + b;
  else
    y := a and b;
  end if;
end design;|}))

(* ------------------------------------------------------------------ *)
(* Scoap                                                              *)
(* ------------------------------------------------------------------ *)

module Scoap = Mutsamp_atpg.Scoap

let test_scoap_and_gate () =
  (* y = a and b: CC0(y)=min(1,1)+1=2, CC1(y)=1+1+1=3,
     CO(a)=CO(y)+CC1(b)+1=0+1+1=2. *)
  let b = B.create "t" in
  let a = B.input b "a" and bb = B.input b "b" in
  let y = B.and_ b a bb in
  B.output b "y" y;
  let nl = B.finalize b in
  let s = Scoap.compute nl in
  check_int "cc0 y" 2 s.Scoap.cc0.(y);
  check_int "cc1 y" 3 s.Scoap.cc1.(y);
  check_int "co a" 2 s.Scoap.co.(a);
  check_int "co y" 0 s.Scoap.co.(y);
  check_int "cc0 pi" 1 s.Scoap.cc0.(a);
  check_int "harder value of AND output is 1" 1 (Scoap.harder_value s y)

let test_scoap_not_chain () =
  (* y = not (not a): each inversion adds 1 and swaps. *)
  let b = B.create "t" in
  let a = B.input b "a" in
  (* Defeat the builder's double-negation rewrite with an intervening
     fanout use. *)
  let n1 = B.not_ b a in
  let y = B.nand_ b n1 n1 in
  (* nand(x,x) folds to not x; check controllabilities through it *)
  B.output b "y" y;
  let nl = B.finalize b in
  let s = Scoap.compute nl in
  check_bool "cc0 of y relates to cc1 of n1" true (s.Scoap.cc0.(y) > s.Scoap.cc1.(n1) - 2)

let test_scoap_constants () =
  let b = B.create "t" in
  let a = B.input b "a" in
  let k = B.const b true in
  B.output b "y" (B.xor_ b a k);
  let nl = B.finalize b in
  let s = Scoap.compute nl in
  check_int "const1 cc1" 0 s.Scoap.cc1.(k);
  check_bool "const1 cc0 infinite" true (s.Scoap.cc0.(k) >= Scoap.infinity_cost)

let test_scoap_observability_fanout_min () =
  (* A stem feeding an easy and a hard path takes the cheap one. *)
  let b = B.create "t" in
  let a = B.input b "a" and c = B.input b "c" and d = B.input b "d" in
  let hard = B.and_ b (B.and_ b a c) d in
  B.output b "direct" a;  (* a is also a PO: CO(a) = 0 *)
  B.output b "hard" hard;
  let nl = B.finalize b in
  let s = Scoap.compute nl in
  check_int "stem takes min" 0 s.Scoap.co.(a)

let test_scoap_dff_boundaries () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let q = B.dff b ~init:false in
  B.connect_dff b q ~d:(B.and_ b q x);
  B.output b "y" q;
  let nl = B.finalize b in
  let s = Scoap.compute nl in
  check_int "dff q controllable" 1 s.Scoap.cc0.(q);
  let d = nl.Netlist.gates.(q).Mutsamp_netlist.Gate.fanins.(0) in
  check_int "d pin observable" 0 s.Scoap.co.(d)

(* ------------------------------------------------------------------ *)
(* Prpg                                                               *)
(* ------------------------------------------------------------------ *)

let test_lfsr_maximal_small_widths () =
  List.iter
    (fun w ->
      check_bool
        (Printf.sprintf "width %d maximal" w)
        true
        (Prpg.lfsr_period_is_maximal ~width:w))
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 15; 16 ]

let test_lfsr_deterministic () =
  let a = Prpg.lfsr_sequence ~width:8 ~seed:5 ~length:100 in
  let b = Prpg.lfsr_sequence ~width:8 ~seed:5 ~length:100 in
  check_bool "same" true (a = b)

let test_lfsr_zero_seed_replaced () =
  let seq = Prpg.lfsr_sequence ~width:8 ~seed:0 ~length:10 in
  Array.iter (fun s -> check_bool "never zero" true (s <> 0)) seq

let test_lfsr_values_in_range () =
  let seq = Prpg.lfsr_sequence ~width:5 ~seed:3 ~length:64 in
  Array.iter (fun s -> check_bool "5 bits" true (s >= 0 && s < 32)) seq

let test_uniform_sequence_range () =
  let prng = Prng.create 7 in
  let seq = Prpg.uniform_sequence prng ~bits:10 ~length:200 in
  Array.iter
    (fun s ->
      check_int "10 bits wide" 10 (Mutsamp_fault.Pattern.width s);
      let code = Mutsamp_util.Packvec.to_code s in
      check_bool "10 bits" true (code >= 0 && code < 1024))
    seq

let test_uniform_sequence_wide () =
  (* Widths past the old 62-bit code ceiling draw per bit; the patterns
     must carry the full width and not be degenerate. *)
  let prng = Prng.create 11 in
  let seq = Prpg.uniform_sequence prng ~bits:128 ~length:50 in
  check_int "width kept" 128 (Mutsamp_fault.Pattern.width seq.(0));
  let ones s =
    let n = ref 0 in
    for k = 0 to Mutsamp_fault.Pattern.width s - 1 do
      if Mutsamp_fault.Pattern.get s k then incr n
    done;
    !n
  in
  let total = Array.fold_left (fun acc s -> acc + ones s) 0 seq in
  (* 6400 fair coin flips: astronomically unlikely to stray this far. *)
  check_bool "roughly balanced" true (total > 2500 && total < 3900)

(* ------------------------------------------------------------------ *)
(* Scan                                                               *)
(* ------------------------------------------------------------------ *)

let counter_netlist () =
  Flow.synthesize
    (parse
       {|design counter is
  input en : bit;
  output q : unsigned(3);
  reg count : unsigned(3) := 0;
begin
  q := count;
  if en = '1' then
    count := count + 1;
  end if;
end design;|})

let test_scan_makes_combinational () =
  let nl = counter_netlist () in
  let scanned = Scan.full_scan nl in
  check_int "no dffs" 0 (Netlist.num_dffs scanned);
  check_int "inputs grew" (Array.length nl.Netlist.input_nets + 3)
    (Array.length scanned.Netlist.input_nets);
  check_int "outputs grew" (Array.length nl.Netlist.output_list + 3)
    (Array.length scanned.Netlist.output_list)

let test_scan_preserves_combinational_logic () =
  (* With scan inputs equal to a state s and en=1, scan_d must read
     s + 1. *)
  let scanned = Scan.full_scan (counter_netlist ()) in
  let sim = Mutsamp_netlist.Bitsim.create scanned in
  let input_index name =
    let names = Netlist.input_names scanned in
    let rec find k = if names.(k) = name then k else find (k + 1) in
    find 0
  in
  let out_index name =
    let rec find k =
      if fst scanned.Netlist.output_list.(k) = name then k else find (k + 1)
    in
    find 0
  in
  for s = 0 to 7 do
    let words = Array.make (Array.length scanned.Netlist.input_nets) 0 in
    words.(input_index "en") <- Mutsamp_netlist.Bitsim.all_ones;
    for bit = 0 to 2 do
      if (s lsr bit) land 1 = 1 then
        words.(input_index (Scan.scan_input_name bit)) <- Mutsamp_netlist.Bitsim.all_ones
    done;
    let outs = Mutsamp_netlist.Bitsim.step sim words in
    let next =
      (if outs.(out_index (Scan.scan_output_name 0)) land 1 = 1 then 1 else 0)
      lor (if outs.(out_index (Scan.scan_output_name 1)) land 1 = 1 then 2 else 0)
      lor (if outs.(out_index (Scan.scan_output_name 2)) land 1 = 1 then 4 else 0)
    in
    check_int (Printf.sprintf "next state of %d" s) ((s + 1) land 7) next
  done

(* ------------------------------------------------------------------ *)
(* Topoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_topoff_reaches_full_coverage () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let r = Topoff.run nl ~faults ~seed_patterns:[||] in
  Alcotest.(check (float 1e-6)) "100% of testable" 100. r.Topoff.final_coverage_percent;
  check_int "all faults accounted" (List.length faults)
    (r.Topoff.seed_detected + r.Topoff.random_detected + r.Topoff.atpg_detected
    + r.Topoff.untestable + r.Topoff.aborted)

let test_topoff_seed_reduces_work () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  (* A full exhaustive seed leaves nothing for the other phases. *)
  let r =
    Topoff.run nl ~faults
      ~seed_patterns:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 8 (fun i -> i)))
  in
  check_int "everything from seed" (List.length faults) r.Topoff.seed_detected;
  check_int "no atpg calls" 0 r.Topoff.atpg_calls;
  check_int "no random patterns" 0 r.Topoff.random_patterns

let test_topoff_sat_engine () =
  let nl = redundant_netlist () in
  let faults = Fault.full_list nl in
  let r = Topoff.run ~generator:Topoff.Use_sat ~random_budget:0 nl ~faults ~seed_patterns:[||] in
  check_bool "found untestable" true (r.Topoff.untestable >= 1);
  Alcotest.(check (float 1e-6)) "100% of testable" 100. r.Topoff.final_coverage_percent

let test_topoff_final_test_set_detects_everything () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let r = Topoff.run nl ~faults ~seed_patterns:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b111 |]) in
  let check_run = Fsim.run nl ~faults ~sequence:r.Topoff.test_set in
  check_int "replay detects all testable"
    (List.length faults - r.Topoff.untestable - r.Topoff.aborted)
    check_run.Fsim.detected

(* Property: injected-netlist semantics match the simulator's built-in
   injection on random patterns. *)
let prop_inject_matches_builtin =
  let gen = QCheck.Gen.(pair (int_range 0 5000) (int_range 0 7)) in
  QCheck.Test.make ~name:"Inject.apply = Bitsim injection" ~count:100
    (QCheck.make gen) (fun (seed, pattern) ->
      let nl = full_adder () in
      let faults = Array.of_list (Fault.full_list nl) in
      let prng = Prng.create seed in
      let f = faults.(Prng.int prng (Array.length faults)) in
      let faulty_nl = Inject.apply nl f in
      let sim_builtin = Mutsamp_netlist.Bitsim.create nl in
      let sim_faulty = Mutsamp_netlist.Bitsim.create faulty_nl in
      let words netlist =
        Array.init (Array.length netlist.Netlist.input_nets) (fun k ->
            if (pattern lsr k) land 1 = 1 then Mutsamp_netlist.Bitsim.all_ones else 0)
      in
      let built_in =
        Mutsamp_netlist.Bitsim.step_injected sim_builtin (words nl)
          ~inj:(Fault.injection f) ~stuck:(Fault.stuck_word f)
      in
      let via_netlist = Mutsamp_netlist.Bitsim.step sim_faulty (words faulty_nl) in
      built_in = via_netlist)

(* PODEM against SAT-ATPG on random combinational netlists, whose
   constant nets and gates reading one net on both pins exercise the
   implication's special cases: stems on inputs and constants, and
   branch faults. The engines must agree on testability (an abort is
   inconclusive) and every PODEM test must detect its fault. *)
let prop_podem_random_netlists =
  QCheck.Test.make ~name:"podem = satgen on random netlists" ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = Test_engines.random_netlist ~dffs:false seed in
      let podem = Podem.prepare nl in
      List.for_all
        (fun f ->
          match Podem.find_test podem f, ok_exn (Satgen.generate nl f) with
          | Ok (Some p, _), Satgen.Test _ -> detects nl f p
          | Ok (None, _), Satgen.Untestable | Error _, _ -> true
          | Ok _, _ ->
            QCheck.Test.fail_reportf "seed %d: engines disagree on %s" seed
              (Fault.to_string f))
        (Test_engines.faults_with_constants nl))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "atpg.fivevalued",
      [
        Alcotest.test_case "projections" `Quick test_fv_projections;
        Alcotest.test_case "and table" `Quick test_fv_and_table;
        Alcotest.test_case "not/or/xor" `Quick test_fv_not_or_xor;
        Alcotest.test_case "gate eval" `Quick test_fv_gate_eval;
        Alcotest.test_case "gate table = lifted definitions" `Quick test_fv_table_is_lifted;
      ] );
    ( "atpg.podem",
      [
        Alcotest.test_case "full adder tests" `Quick test_podem_finds_tests_full_adder;
        Alcotest.test_case "redundant untestable" `Quick test_podem_untestable_redundant;
        Alcotest.test_case "stats populated" `Quick test_podem_stats_populated;
        Alcotest.test_case "rejects sequential" `Quick test_podem_rejects_sequential;
        Alcotest.test_case "search path (c432)" `Quick test_podem_search_path_c432;
        Alcotest.test_case "search path (c499)" `Quick test_podem_search_path_c499;
        Alcotest.test_case "search path (b03, full-scan)" `Quick test_podem_search_path_b03;
        Alcotest.test_case "prepared data reused = fresh" `Quick test_podem_prepared_reuse;
      ] );
    ( "atpg.cross_engine",
      [
        Alcotest.test_case "agree on full adder" `Quick test_engines_agree_full_adder;
        Alcotest.test_case "sat patterns pinned" `Quick test_satgen_pinned;
        Alcotest.test_case "agree on redundant" `Quick test_engines_agree_redundant;
        Alcotest.test_case "agree on alu" `Quick test_engines_agree_alu;
        q prop_podem_random_netlists;
      ] );
    ( "atpg.scoap",
      [
        Alcotest.test_case "and gate" `Quick test_scoap_and_gate;
        Alcotest.test_case "inverter costs" `Quick test_scoap_not_chain;
        Alcotest.test_case "constants" `Quick test_scoap_constants;
        Alcotest.test_case "fanout observability" `Quick test_scoap_observability_fanout_min;
        Alcotest.test_case "dff boundaries" `Quick test_scoap_dff_boundaries;
      ] );
    ( "atpg.prpg",
      [
        Alcotest.test_case "lfsr maximal periods" `Quick test_lfsr_maximal_small_widths;
        Alcotest.test_case "lfsr deterministic" `Quick test_lfsr_deterministic;
        Alcotest.test_case "zero seed replaced" `Quick test_lfsr_zero_seed_replaced;
        Alcotest.test_case "values in range" `Quick test_lfsr_values_in_range;
        Alcotest.test_case "uniform range" `Quick test_uniform_sequence_range;
        Alcotest.test_case "uniform wide" `Quick test_uniform_sequence_wide;
      ] );
    ( "atpg.scan",
      [
        Alcotest.test_case "makes combinational" `Quick test_scan_makes_combinational;
        Alcotest.test_case "preserves logic" `Quick test_scan_preserves_combinational_logic;
      ] );
    ( "atpg.topoff",
      [
        Alcotest.test_case "full coverage" `Quick test_topoff_reaches_full_coverage;
        Alcotest.test_case "seed reduces work" `Quick test_topoff_seed_reduces_work;
        Alcotest.test_case "sat engine" `Quick test_topoff_sat_engine;
        Alcotest.test_case "final set detects all" `Quick test_topoff_final_test_set_detects_everything;
        q prop_inject_matches_builtin;
      ] );
  ]
