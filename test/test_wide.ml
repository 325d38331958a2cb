(* Wide-pattern kernel tests: Packvec unit coverage, differential
   properties of the word-parallel fault-simulation backends against the
   serial single-lane reference, and the >62-input end-to-end
   regression on the registered wide128 circuit. *)

module Packvec = Mutsamp_util.Packvec
module Prng = Mutsamp_util.Prng
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module B = Netlist.Builder
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Pattern = Mutsamp_fault.Pattern
module Registry = Mutsamp_circuits.Registry
module Flow = Mutsamp_synth.Flow
module Prpg = Mutsamp_atpg.Prpg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Packvec units                                                      *)
(* ------------------------------------------------------------------ *)

let test_packvec_layout () =
  check_int "word_bits" 63 Packvec.word_bits;
  check_int "one word" 1 (Packvec.words_for 63);
  check_int "two words" 2 (Packvec.words_for 64);
  check_int "three words" 3 (Packvec.words_for 128);
  check_int "full mask" (-1) (Packvec.last_mask 126);
  check_int "partial mask" 0b11 (Packvec.last_mask 65)

let test_packvec_get_set () =
  let v = Packvec.create 128 in
  check_bool "starts zero" true (Array.for_all (( = ) 0) (Packvec.words v));
  Packvec.set v 0 true;
  Packvec.set v 62 true;
  Packvec.set v 63 true;
  Packvec.set v 127 true;
  check_bool "bit 0" true (Packvec.get v 0);
  check_bool "bit 62" true (Packvec.get v 62);
  check_bool "bit 63 crosses word" true (Packvec.get v 63);
  check_bool "bit 127" true (Packvec.get v 127);
  check_bool "bit 64 clear" false (Packvec.get v 64);
  let words = Alcotest.(check (array int)) in
  words "words" [| 1 lor (1 lsl 62); 1; 2 |] (Packvec.words v);
  Packvec.set v 63 false;
  words "words after clear" [| 1 lor (1 lsl 62); 0; 2 |] (Packvec.words v);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Packvec.get: index 128 out of range 0..127") (fun () ->
      ignore (Packvec.get v 128))

let test_packvec_code_roundtrip () =
  let v = Packvec.of_code ~width:40 0b1011001 in
  check_int "roundtrip" 0b1011001 (Packvec.to_code v);
  let w = Packvec.of_code ~width:70 0b1011001 in
  check_bool "bit 0" true (Packvec.get w 0);
  check_bool "bit 6" true (Packvec.get w 6);
  check_bool "high bits zero" false (Packvec.get w 69);
  Alcotest.check_raises "to_code wide"
    (Invalid_argument "Packvec.to_code: width exceeds 62-bit integer codes")
    (fun () ->
      let wide = Packvec.init 70 (fun i -> i = 69) in
      ignore (Packvec.to_code wide))

let test_packvec_equal () =
  let a = Packvec.init 130 (fun i -> i mod 3 = 0) in
  let b = Packvec.copy a in
  check_bool "equal copies" true (Packvec.equal a b);
  Packvec.set b 100 (not (Packvec.get b 100));
  check_bool "copy is independent" true (Packvec.get a 100 <> Packvec.get b 100);
  check_bool "not equal" false (Packvec.equal a b);
  Packvec.set b 100 (Packvec.get a 100);
  check_bool "equal again" true (Packvec.equal a b);
  check_bool "width matters" false
    (Packvec.equal (Packvec.create 63) (Packvec.create 64))

(* ------------------------------------------------------------------ *)
(* Differential properties: wide backends vs serial reference         *)
(* ------------------------------------------------------------------ *)

(* Random small netlists, optionally sequential (1 to [max_dffs]
   flip-flops): a few inputs, a pile of random gates, random outputs. *)
let random_netlist ?(max_dffs = 2) ~dffs seed =
  let prng = Prng.create seed in
  let b = B.create (Printf.sprintf "rand%d" seed) in
  let n_inputs = 2 + Prng.int prng 3 in
  let pool =
    ref (List.init n_inputs (fun k -> B.input b (Printf.sprintf "i%d" k)))
  in
  let qs =
    if not dffs then []
    else
      List.init
        (1 + Prng.int prng max_dffs)
        (fun _ ->
          let q = B.dff b ~init:(Prng.bool prng) in
          pool := q :: !pool;
          q)
  in
  let pick () = Prng.pick_list prng !pool in
  for _ = 1 to 6 + Prng.int prng 12 do
    let x = pick () and y = pick () in
    let g =
      match Prng.int prng 7 with
      | 0 -> B.and_ b x y
      | 1 -> B.or_ b x y
      | 2 -> B.xor_ b x y
      | 3 -> B.nand_ b x y
      | 4 -> B.nor_ b x y
      | 5 -> B.xnor_ b x y
      | _ -> B.not_ b x
    in
    pool := g :: !pool
  done;
  List.iter (fun q -> B.connect_dff b q ~d:(pick ())) qs;
  let n_outputs = 1 + Prng.int prng 3 in
  for k = 0 to n_outputs - 1 do
    B.output b (Printf.sprintf "o%d" k) (pick ())
  done;
  B.finalize b

let random_sequence nl ~length seed =
  let prng = Prng.create seed in
  let n_in = Array.length nl.Netlist.input_nets in
  Array.init length (fun _ -> Packvec.random prng n_in)

let same_report (a : Fsim.report) (b : Fsim.report) =
  a.Fsim.total = b.Fsim.total
  && a.Fsim.detected = b.Fsim.detected
  && a.Fsim.patterns_applied = b.Fsim.patterns_applied
  && Array.for_all2
       (fun (da : Fsim.detection) (db : Fsim.detection) ->
         da.Fsim.fault = db.Fsim.fault
         && da.Fsim.detected_at = db.Fsim.detected_at)
       a.Fsim.detections b.Fsim.detections

(* The compiled backend must reproduce the serial reference exactly,
   including first-detection indices. *)
let prop_combinational_matches_reference =
  QCheck.Test.make ~name:"wide combinational = serial reference" ~count:60
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~dffs:false seed in
      let faults = Fault.full_list nl in
      let patterns = random_sequence nl ~length:(40 + (seed mod 100)) seed in
      let reference = Fsim.serial nl ~faults ~sequence:patterns in
      same_report reference (Fsim.run nl ~faults ~sequence:patterns))

(* Packed parallel-fault backend on sequential machines. *)
let prop_parallel_fault_matches_reference =
  QCheck.Test.make ~name:"wide parallel-fault = serial reference" ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~dffs:true seed in
      let faults = Fault.full_list nl in
      let sequence = random_sequence nl ~length:(8 + (seed mod 16)) seed in
      let reference = Fsim.serial nl ~faults ~sequence in
      same_report reference (Fsim.run nl ~faults ~sequence))

(* Stuck-at faults on every flip-flop's Q stem and D pin. The full
   list leaves out a D pin whose driver has a single sink (the stem
   fault stands for it), so the sequential properties add them
   explicitly: a D-pin fault diverges the state without ever being
   excited at an output, and a Q-stem fault corrupts the reset state. *)
let dff_faults nl =
  List.concat_map
    (fun q ->
      List.concat_map
        (fun polarity ->
          [
            { Fault.site = Fault.Stem q; polarity };
            { Fault.site = Fault.Branch { gate = q; pin = 0 }; polarity };
          ])
        [ Fault.Stuck_at_0; Fault.Stuck_at_1 ])
    (Array.to_list nl.Netlist.dff_nets)

(* The packed sequential backend drops detected faults, skips inactive
   ones and regroups the rest every cycle; 64-400 cycles on machines
   with up to four flip-flops give those paths room to act (faults
   diverge, reconverge with the good state and drop at scattered
   cycles). It must reproduce the serial reference, first-detection
   cycles included. *)
let prop_packed_sequential_long_runs =
  QCheck.Test.make ~name:"packed sequential = serial over 64-400 cycles"
    ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~max_dffs:4 ~dffs:true seed in
      let faults = Fault.full_list nl @ dff_faults nl in
      let sequence = random_sequence nl ~length:(64 + (seed mod 337)) seed in
      let reference = Fsim.serial nl ~faults ~sequence in
      same_report reference (Fsim.run nl ~faults ~sequence))

(* ------------------------------------------------------------------ *)
(* >62-input end-to-end regression                                    *)
(* ------------------------------------------------------------------ *)

let wide128_netlist () =
  match Registry.find "wide128" with
  | None -> Alcotest.fail "wide128 not registered"
  | Some e -> Flow.synthesize (e.Registry.design ())

let test_wide128_registered () =
  let nl = wide128_netlist () in
  check_int "128 inputs" 128 (Array.length nl.Netlist.input_nets);
  check_int "2 outputs" 2 (Array.length nl.Netlist.output_list);
  check_int "combinational" 0 (Array.length nl.Netlist.dff_nets)

let test_wide128_fault_coverage () =
  let nl = wide128_netlist () in
  let faults = Fault.full_list nl in
  let patterns = Prpg.uniform_sequence (Prng.create 11) ~bits:128 ~length:64 in
  let r = Fsim.run nl ~faults ~sequence:patterns in
  check_bool "patterns are wide" true (Pattern.width patterns.(0) = 128);
  check_bool "nonzero coverage" true (r.Fsim.detected > 0);
  (* The parity chain makes most faults randomly testable; 64 random
     vectors reliably clear half the list by a wide margin. *)
  check_bool "substantial coverage" true
    (Fsim.coverage_percent r > 50.);
  check_bool "coverage curve monotone" true
    (let c = Fsim.coverage_curve r in
     List.for_all2
       (fun (_, a) (_, b) -> a <= b +. 1e-9)
       (List.filteri (fun i _ -> i < List.length c - 1) c)
       (List.tl c))

let test_wide128_differential_sample () =
  (* Exact agreement with the serial reference on a fault sample, so the
     >62-input path is covered by the differential property too. *)
  let nl = wide128_netlist () in
  let faults =
    List.filteri (fun i _ -> i mod 23 = 0) (Fault.full_list nl)
  in
  let patterns = Prpg.uniform_sequence (Prng.create 3) ~bits:128 ~length:16 in
  let reference = Fsim.serial nl ~faults ~sequence:patterns in
  let wide = Fsim.run nl ~faults ~sequence:patterns in
  check_bool "sampled faults agree" true (same_report reference wide)

let suite =
  [
    ( "wide.packvec",
      [
        Alcotest.test_case "word layout" `Quick test_packvec_layout;
        Alcotest.test_case "get/set across words" `Quick test_packvec_get_set;
        Alcotest.test_case "code roundtrip" `Quick test_packvec_code_roundtrip;
        Alcotest.test_case "equal" `Quick test_packvec_equal;
      ] );
    ( "wide.differential",
      [
        QCheck_alcotest.to_alcotest prop_combinational_matches_reference;
        QCheck_alcotest.to_alcotest prop_parallel_fault_matches_reference;
        QCheck_alcotest.to_alcotest prop_packed_sequential_long_runs;
      ] );
    ( "wide.end_to_end",
      [
        Alcotest.test_case "wide128 registered" `Quick test_wide128_registered;
        Alcotest.test_case "wide128 coverage" `Quick
          test_wide128_fault_coverage;
        Alcotest.test_case "wide128 differential sample" `Quick
          test_wide128_differential_sample;
      ] );
  ]
