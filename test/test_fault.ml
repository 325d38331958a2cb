(* Tests for lib/fault: fault lists, collapsing, serial and parallel
   fault simulation, coverage curves. *)

module Prng = Mutsamp_util.Prng
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Gate = Mutsamp_netlist.Gate
module B = Netlist.Builder
module Fault = Mutsamp_fault.Fault
module Collapse = Mutsamp_fault.Collapse
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Flow = Mutsamp_synth.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let and_netlist () =
  let b = B.create "and2" in
  let a = B.input b "a" and bb = B.input b "b" in
  B.output b "y" (B.and_ b a bb);
  B.finalize b

let full_adder () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

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

(* ------------------------------------------------------------------ *)
(* Fault lists                                                        *)
(* ------------------------------------------------------------------ *)

let test_full_list_and_gate () =
  let nl = and_netlist () in
  let faults = Fault.full_list nl in
  (* 3 nets (a, b, y), no fanout > 1 -> 6 stem faults, no branches. *)
  check_int "six faults" 6 (List.length faults);
  check_bool "no branch faults" true
    (List.for_all
       (fun (f : Fault.t) -> match f.site with Fault.Stem _ -> true | Fault.Branch _ -> false)
       faults)

let test_full_list_has_branches_on_fanout () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  check_bool "has branch faults" true
    (List.exists
       (fun (f : Fault.t) -> match f.site with Fault.Branch _ -> true | Fault.Stem _ -> false)
       faults)

let test_full_list_excludes_constants () =
  let b = B.create "c" in
  let a = B.input b "a" in
  let k = B.const b true in
  B.output b "y" (B.xor_ b a k);
  let nl = B.finalize b in
  let faults = Fault.full_list nl in
  List.iter
    (fun (f : Fault.t) ->
      match f.site with
      | Fault.Stem net ->
        (match nl.Netlist.gates.(net).Gate.kind with
         | Gate.Const _ -> Alcotest.fail "constant stem fault present"
         | _ -> ())
      | Fault.Branch _ -> ())
    faults

let test_full_list_deterministic () =
  let nl = full_adder () in
  check_bool "same list" true (Fault.full_list nl = Fault.full_list nl)

(* ------------------------------------------------------------------ *)
(* Collapse                                                           *)
(* ------------------------------------------------------------------ *)

let test_collapse_reduces () =
  let nl = full_adder () in
  let c = Collapse.run nl in
  check_bool "collapsed smaller" true (c.Collapse.collapsed_size < c.Collapse.full_size);
  check_bool "ratio sane" true (Collapse.ratio c > 0.3 && Collapse.ratio c < 1.0)

let test_collapse_classes_consistent () =
  let nl = full_adder () in
  let c = Collapse.run nl in
  (* Every fault's representative must itself map to itself. *)
  List.iter
    (fun f ->
      let r = c.Collapse.class_of f in
      check_bool "idempotent" true (Fault.compare (c.Collapse.class_of r) r = 0))
    (Fault.full_list nl)

let test_collapse_and_rule () =
  (* For y = a and b with single fanouts: a SA0 ≡ b SA0 ≡ y SA0. *)
  let nl = and_netlist () in
  let c = Collapse.run nl in
  let a = Ports.input nl "a" in
  let b = Ports.input nl "b" in
  let y = Ports.output nl "y" in
  let cls net =
    c.Collapse.class_of { Fault.site = Fault.Stem net; polarity = Fault.Stuck_at_0 }
  in
  check_bool "a0 = y0" true (Fault.compare (cls a) (cls y) = 0);
  check_bool "b0 = y0" true (Fault.compare (cls b) (cls y) = 0);
  (* SA1 faults on AND inputs are NOT equivalent. *)
  let cls1 net =
    c.Collapse.class_of { Fault.site = Fault.Stem net; polarity = Fault.Stuck_at_1 }
  in
  check_bool "a1 /= b1" false (Fault.compare (cls1 a) (cls1 b) = 0)

(* Soundness of collapsing: faults in one class are detected by exactly
   the same patterns (checked exhaustively on the full adder). *)
let test_collapse_sound_on_full_adder () =
  let nl = full_adder () in
  let c = Collapse.run nl in
  let all = Fault.full_list nl in
  let patterns = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 8 (fun i -> i)) in
  let detect_set f =
    let r = Fsim.run nl ~faults:[ f ] ~sequence:patterns in
    (* With a single fault and no dropping subtleties we need the set of
       ALL detecting patterns, so run each pattern alone. *)
    ignore r;
    List.filter
      (fun p ->
        let r = Fsim.run nl ~faults:[ f ] ~sequence:[| p |] in
        r.Fsim.detected = 1)
      (Array.to_list patterns)
  in
  (* Group faults by representative and compare detect sets. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let r = c.Collapse.class_of f in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      Hashtbl.replace groups r (f :: cur))
    all;
  Hashtbl.iter
    (fun _ members ->
      match members with
      | [] | [ _ ] -> ()
      | first :: rest ->
        let reference = detect_set first in
        List.iter
          (fun f ->
            check_bool
              (Printf.sprintf "same detect set: %s vs %s" (Fault.to_string first)
                 (Fault.to_string f))
              true
              (detect_set f = reference))
          rest)
    groups

(* ------------------------------------------------------------------ *)
(* Fsim                                                               *)
(* ------------------------------------------------------------------ *)

let test_fsim_and_gate_exhaustive_full_coverage () =
  let nl = and_netlist () in
  let faults = Fault.full_list nl in
  let r =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b00; 0b01; 0b10; 0b11 |])
  in
  check_int "all detected" (List.length faults) r.Fsim.detected;
  Alcotest.(check (float 1e-6)) "coverage 100" 100. (Fsim.coverage_percent r)

let test_fsim_single_pattern_partial () =
  let nl = and_netlist () in
  let faults = Fault.full_list nl in
  (* Pattern a=1,b=1 detects y SA0, a SA0, b SA0 only. *)
  let r =
    Fsim.run nl ~faults ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b11 |])
  in
  check_int "three detected" 3 r.Fsim.detected

let test_fsim_detection_indices_monotone () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let patterns = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 8 (fun i -> i)) in
  let r = Fsim.run nl ~faults ~sequence:patterns in
  Array.iter
    (fun (d : Fsim.detection) ->
      match d.Fsim.detected_at with
      | Some k -> check_bool "index in range" true (k >= 0 && k < 8)
      | None -> ())
    r.Fsim.detections

let test_fsim_coverage_curve_monotone () =
  let nl = full_adder () in
  let faults = Fault.full_list nl in
  let patterns = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init 8 (fun i -> i)) in
  let r = Fsim.run nl ~faults ~sequence:patterns in
  let curve = Fsim.coverage_curve r in
  check_int "curve length" 9 (List.length curve);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      check_bool "monotone" true (b >= a -. 1e-9);
      monotone rest
    | _ -> ()
  in
  monotone curve;
  (* Curve endpoint equals the report coverage. *)
  let _, last = List.nth curve 8 in
  Alcotest.(check (float 1e-6)) "endpoint" (Fsim.coverage_percent r) last

let test_fsim_length_to_reach () =
  let nl = and_netlist () in
  let faults = Fault.full_list nl in
  let r =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) [| 0b11; 0b01; 0b10; 0b00 |])
  in
  (match Fsim.length_to_reach r 50.0 with
   | Some n -> check_bool "reasonable prefix" true (n >= 1 && n <= 4)
   | None -> Alcotest.fail "should reach 50%");
  check_bool "cannot exceed final coverage" true
    (Fsim.length_to_reach r 101.0 = None)

let test_fsim_sequential_counter () =
  let nl = counter_netlist () in
  let faults = Fault.full_list nl in
  (* Enable high for 16 cycles exercises the whole count range. *)
  let seq = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.make 16 1) in
  let r = Fsim.run nl ~faults ~sequence:seq in
  check_bool "detects most faults" true
    (Fsim.coverage_percent r > 60.);
  (* A short sequence detects fewer faults. *)
  let r2 =
    Fsim.run nl ~faults
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.make 2 1))
  in
  check_bool "short sequence weaker" true (r2.Fsim.detected <= r.Fsim.detected)

let test_fsim_auto_dispatch () =
  let comb = and_netlist () in
  let seq = counter_netlist () in
  let r1 =
    Fsim.run comb ~faults:(Fault.full_list comb)
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs comb)) [| 3 |])
  in
  check_bool "comb ran" true (r1.Fsim.total > 0);
  let r2 =
    Fsim.run seq ~faults:(Fault.full_list seq)
      ~sequence:(Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs seq)) [| 1; 1 |])
  in
  check_bool "seq ran" true (r2.Fsim.total > 0)

let test_input_code () =
  let nl = full_adder () in
  let names = Netlist.input_names nl in
  let p = Pattern.init ~inputs:(Pattern.num_inputs nl) (fun k -> List.mem names.(k) [ "a"; "cin" ]) in
  (* a is input 0, b input 1, cin input 2. *)
  check_int "code" 0b101 (Mutsamp_util.Packvec.to_code p)

(* Property: the serial reference and the parallel-pattern (compiled)
   backend agree on combinational circuits (same detected set and same
   first-detection indices). *)
let prop_serial_equals_parallel =
  let gen = QCheck.Gen.(pair (int_range 0 10000) (int_range 1 40)) in
  QCheck.Test.make ~name:"serial = parallel fault sim" ~count:60 (QCheck.make gen)
    (fun (seed, n_patterns) ->
      let nl = full_adder () in
      let faults = Fault.full_list nl in
      let prng = Prng.create seed in
      let patterns =
        Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init n_patterns (fun _ -> Prng.int prng 8))
      in
      let rp = Fsim.run nl ~faults ~sequence:patterns in
      let rs = Fsim.serial nl ~faults ~sequence:patterns in
      rp.Fsim.detected = rs.Fsim.detected
      && Array.for_all2
           (fun (a : Fsim.detection) (b : Fsim.detection) ->
             a.Fsim.detected_at = b.Fsim.detected_at)
           rp.Fsim.detections rs.Fsim.detections)

(* Property: the parallel-fault backend matches the serial one exactly —
   detected sets AND first-detection cycles — on a sequential circuit. *)
let prop_parallel_fault_equals_serial =
  let gen = QCheck.Gen.(pair (int_range 0 100000) (int_range 1 24)) in
  QCheck.Test.make ~name:"parallel-fault = serial fault sim (sequential)" ~count:40
    (QCheck.make gen) (fun (seed, len) ->
      let nl = counter_netlist () in
      let faults = Fault.full_list nl in
      let prng = Prng.create seed in
      let sequence =
        Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init len (fun _ -> Prng.int prng 2))
      in
      let rs = Fsim.serial nl ~faults ~sequence in
      let rp = Fsim.run nl ~faults ~sequence in
      rs.Fsim.detected = rp.Fsim.detected
      && Array.for_all2
           (fun (a : Fsim.detection) (b : Fsim.detection) ->
             a.Fsim.detected_at = b.Fsim.detected_at)
           rs.Fsim.detections rp.Fsim.detections)

let test_parallel_fault_many_groups () =
  (* More faults than lanes forces several passes. *)
  let nl = counter_netlist () in
  let faults = Fault.full_list nl in
  check_bool "enough faults to need grouping" true (List.length faults > 62);
  let sequence = Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.make 16 1) in
  let rp = Fsim.run nl ~faults ~sequence in
  let rs = Fsim.serial nl ~faults ~sequence in
  check_int "same detected" rs.Fsim.detected rp.Fsim.detected

(* Property: coverage never decreases when patterns are appended. *)
let prop_coverage_monotone_in_patterns =
  let gen = QCheck.Gen.(pair (int_range 0 10000) (int_range 1 20)) in
  QCheck.Test.make ~name:"coverage monotone in pattern count" ~count:50
    (QCheck.make gen) (fun (seed, n) ->
      let nl = full_adder () in
      let faults = Fault.full_list nl in
      let prng = Prng.create seed in
      let patterns =
        Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs nl)) (Array.init (2 * n) (fun _ -> Prng.int prng 8))
      in
      let r1 = Fsim.run nl ~faults ~sequence:(Array.sub patterns 0 n) in
      let r2 = Fsim.run nl ~faults ~sequence:patterns in
      Fsim.coverage_percent r2 >= Fsim.coverage_percent r1 -. 1e-9)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "fault.list",
      [
        Alcotest.test_case "and gate list" `Quick test_full_list_and_gate;
        Alcotest.test_case "branches on fanout" `Quick test_full_list_has_branches_on_fanout;
        Alcotest.test_case "constants excluded" `Quick test_full_list_excludes_constants;
        Alcotest.test_case "deterministic" `Quick test_full_list_deterministic;
      ] );
    ( "fault.collapse",
      [
        Alcotest.test_case "reduces" `Quick test_collapse_reduces;
        Alcotest.test_case "classes consistent" `Quick test_collapse_classes_consistent;
        Alcotest.test_case "and rule" `Quick test_collapse_and_rule;
        Alcotest.test_case "sound on full adder" `Quick test_collapse_sound_on_full_adder;
      ] );
    ( "fault.fsim",
      [
        Alcotest.test_case "and exhaustive" `Quick test_fsim_and_gate_exhaustive_full_coverage;
        Alcotest.test_case "single pattern" `Quick test_fsim_single_pattern_partial;
        Alcotest.test_case "detection indices" `Quick test_fsim_detection_indices_monotone;
        Alcotest.test_case "curve monotone" `Quick test_fsim_coverage_curve_monotone;
        Alcotest.test_case "length to reach" `Quick test_fsim_length_to_reach;
        Alcotest.test_case "sequential counter" `Quick test_fsim_sequential_counter;
        Alcotest.test_case "auto dispatch" `Quick test_fsim_auto_dispatch;
        Alcotest.test_case "input code" `Quick test_input_code;
        Alcotest.test_case "parallel-fault groups" `Quick test_parallel_fault_many_groups;
        q prop_serial_equals_parallel;
        q prop_parallel_fault_equals_serial;
        q prop_coverage_monotone_in_patterns;
      ] );
  ]
