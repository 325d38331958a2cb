(* Tests for lib/circuits: each benchmark parses/elaborates,
   synthesises, matches its functional specification, and behaves like
   its netlist image. *)

module Bitvec = Mutsamp_util.Bitvec
module Prng = Mutsamp_util.Prng
module Ast = Mutsamp_hdl.Ast
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Registry = Mutsamp_circuits.Registry
module C17 = Mutsamp_circuits.C17
module C432 = Mutsamp_circuits.C432
module C499 = Mutsamp_circuits.C499
module Flow = Mutsamp_synth.Flow
module Mapping = Mutsamp_synth.Mapping

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_contents () =
  check_int "eleven benchmarks" 11 (List.length Registry.all);
  check_int "four paper benchmarks" 4 (List.length Registry.paper_benchmarks);
  Alcotest.(check (list string))
    "paper set"
    [ "b01"; "b03"; "c432"; "c499" ]
    (List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.paper_benchmarks)

let test_registry_find () =
  check_bool "finds b01" true (Registry.find "b01" <> None);
  check_bool "case-insensitive" true (Registry.find "C432" <> None);
  check_bool "unknown none" true (Registry.find "zz99" = None)

let test_all_designs_elaborate () =
  List.iter
    (fun (e : Registry.entry) ->
      let d = e.Registry.design () in
      check_bool (e.Registry.name ^ " elaborated") true (Check.is_elaborated d);
      let is_comb = Check.is_combinational d in
      check_bool (e.Registry.name ^ " kind consistent") true
        (match e.Registry.kind with
         | Registry.Combinational -> is_comb
         | Registry.Sequential -> not is_comb))
    Registry.all

let test_all_designs_synthesize () =
  List.iter
    (fun (e : Registry.entry) ->
      let d = e.Registry.design () in
      let nl = Flow.synthesize d in
      check_bool (e.Registry.name ^ " has gates") true (Netlist.num_logic_gates nl > 0))
    Registry.all

(* Synthesis equivalence for every benchmark on random stimuli. *)
let test_all_designs_netlist_agrees () =
  let prng = Prng.create 0xBEEF in
  List.iter
    (fun (e : Registry.entry) ->
      let d = e.Registry.design () in
      let _, mapping = Flow.synthesize_mapped d in
      let sim = Bitsim.create (Mapping.netlist mapping) in
      Bitsim.reset sim;
      let seq = Stimuli.random_sequence prng d 24 in
      let hdl = Sim.run d seq in
      List.iter2
        (fun stim expected ->
          let words = Bitsim.step sim (Mapping.pack_stimulus mapping stim) in
          let got = Mapping.unpack_outputs mapping words ~lane:0 in
          check_bool (e.Registry.name ^ " netlist agrees") true
            (Sim.outputs_equal got expected))
        seq hdl)
    Registry.all

(* Property: on every benchmark, a random stimulus placed on the
   netlist's input positions by [set_inputs] reads back unchanged
   through [stimulus_of_inputs]. *)
let registry_mappings =
  lazy
    (List.map
       (fun (e : Registry.entry) ->
         let d = e.Registry.design () in
         (d, snd (Flow.synthesize_mapped d)))
       Registry.all)

let prop_port_map_roundtrip =
  QCheck.Test.make ~name:"set_inputs/stimulus_of_inputs round trip" ~count:20
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let prng = Prng.create seed in
      List.for_all
        (fun (d, mapping) ->
          let stim = Stimuli.random prng d in
          let bits = Array.make (Array.length (Mapping.netlist mapping).Netlist.input_nets) false in
          Mapping.set_inputs mapping stim (fun k -> bits.(k) <- true);
          List.equal
            (fun (n, v) (n', v') -> String.equal n n' && Bitvec.equal v v')
            stim
            (Mapping.stimulus_of_inputs mapping (Array.get bits)))
        (Lazy.force registry_mappings))

(* Every benchmark survives a pretty-print/re-parse round trip. *)
let test_all_designs_pretty_roundtrip () =
  List.iter
    (fun (e : Registry.entry) ->
      let d = e.Registry.design () in
      let reparsed =
        Check.elaborate
          (Mutsamp_robust.Error.ok_exn
             (Mutsamp_hdl.Parser.design_result (Mutsamp_hdl.Pretty.design d)))
      in
      check_bool (e.Registry.name ^ " roundtrip") true (Ast.equal_design d reparsed))
    Registry.all

(* ------------------------------------------------------------------ *)
(* b01 / b02 / b03 functional checks                                  *)
(* ------------------------------------------------------------------ *)

let design name =
  match Registry.find name with
  | Some e -> e.Registry.design ()
  | None -> Alcotest.fail ("missing benchmark " ^ name)

let test_b01_basic_run () =
  let d = design "b01" in
  let stim l1 l2 = [ ("line1", bv 1 l1); ("line2", bv 1 l2) ] in
  (* Equal streams walk A -> B -> D/E ... and never raise overflw in the
     first two cycles. *)
  let outs = Sim.run d [ stim 0 0; stim 1 1; stim 1 1; stim 1 1 ] in
  List.iteri
    (fun i o ->
      if i < 2 then
        check_int (Printf.sprintf "no early overflw (cycle %d)" i) 0
          (Bitvec.to_int (List.assoc "overflw" o)))
    outs;
  check_int "cycles" 4 (List.length outs)

let test_b02_accepts_bcd () =
  let d = design "b02" in
  let feed bits = List.map (fun bit -> [ ("linea", bv 1 bit) ]) bits in
  let u_pulses bits =
    let outs = Sim.run d (feed bits) in
    List.fold_left
      (fun acc o -> acc + Bitvec.to_int (List.assoc "u" o))
      0 outs
  in
  (* 0b0011 = 3 (valid) -> exactly one pulse; 0b1111 = 15 (invalid) ->
     none. MSB first. *)
  check_int "valid digit accepted" 1 (u_pulses [ 0; 0; 1; 1 ]);
  check_int "invalid digit rejected" 0 (u_pulses [ 1; 1; 1; 1 ]);
  check_int "nine accepted" 1 (u_pulses [ 1; 0; 0; 1 ]);
  check_int "ten rejected" 0 (u_pulses [ 1; 0; 1; 0 ])

let test_b03_grant_behaviour () =
  let d = design "b03" in
  let stim r1 r2 r3 r4 =
    [ ("req1", bv 1 r1); ("req2", bv 1 r2); ("req3", bv 1 r3); ("req4", bv 1 r4) ]
  in
  (* A single requester eventually gets a one-hot grant held with busy. *)
  let outs = Sim.run d [ stim 0 1 0 0; stim 0 0 0 0; stim 0 0 0 0 ] in
  (match outs with
   | [ o1; o2; o3 ] ->
     check_int "cycle1 no grant yet" 0 (Bitvec.to_int (List.assoc "grant" o1));
     check_int "cycle2 grant to req2" 0b0010 (Bitvec.to_int (List.assoc "grant" o2));
     check_int "cycle2 busy" 1 (Bitvec.to_int (List.assoc "busy" o2));
     check_int "cycle3 still held" 0b0010 (Bitvec.to_int (List.assoc "grant" o3))
   | _ -> Alcotest.fail "three observations expected")

let test_b03_round_robin_rotates () =
  let d = design "b03" in
  let stim r1 r2 r3 r4 =
    [ ("req1", bv 1 r1); ("req2", bv 1 r2); ("req3", bv 1 r3); ("req4", bv 1 r4) ]
  in
  (* All requesters always asserted: collect the sequence of distinct
     grants; rotation must visit more than one requester. *)
  let outs = Sim.run d (List.init 24 (fun _ -> stim 1 1 1 1)) in
  let grants =
    List.sort_uniq Stdlib.compare
      (List.filter (fun g -> g <> 0)
         (List.map (fun o -> Bitvec.to_int (List.assoc "grant" o)) outs))
  in
  check_bool "several grantees" true (List.length grants >= 2);
  List.iter
    (fun g -> check_bool "one-hot" true (g land (g - 1) = 0))
    grants

let test_b08_matches_pattern () =
  let d = design "b08" in
  let stim load din = [ ("load", bv 1 load); ("din", bv 1 din) ] in
  (* Load 1010, then stream 101010: match pulses whenever the sliding
     window holds the pattern. *)
  let loads = [ stim 1 1; stim 1 0; stim 1 1; stim 1 0 ] in
  let streams = List.map (fun b -> stim 0 b) [ 1; 0; 1; 0; 1; 0 ] in
  let outs = Sim.run d (loads @ streams) in
  let matches = List.map (fun o -> Bitvec.to_int (List.assoc "match_o" o)) outs in
  Alcotest.(check (list int)) "match trace"
    [ 0; 0; 0; 0; 0; 0; 0; 1; 0; 1 ]
    matches

let test_b09_converts () =
  let d = design "b09" in
  let feed bits = List.map (fun b -> [ ("din", bv 1 b) ]) bits in
  (* Two words: 1011 then 0110, MSB first; valid pulses one cycle after
     each 4th bit with the word on dout. *)
  let outs = Sim.run d (feed [ 1; 0; 1; 1; 0; 1; 1; 0; 0 ]) in
  let at i field = Bitvec.to_int (List.assoc field (List.nth outs i)) in
  check_int "no early valid" 0 (at 3 "valid");
  check_int "first word valid" 1 (at 4 "valid");
  check_int "first word value" 0b1011 (at 4 "dout");
  check_int "gap not valid" 0 (at 5 "valid");
  check_int "second word valid" 1 (at 8 "valid");
  check_int "second word value" 0b0110 (at 8 "dout")

(* ------------------------------------------------------------------ *)
(* c17                                                                *)
(* ------------------------------------------------------------------ *)

let test_c17_netlist_structure () =
  let nl = C17.netlist () in
  check_int "five inputs" 5 (Array.length nl.Netlist.input_nets);
  check_int "two outputs" 2 (Array.length nl.Netlist.output_list);
  check_int "six nands" 6 (Netlist.num_logic_gates nl)

let test_c17_design_matches_netlist () =
  let d = C17.design () in
  let reference = Bitsim.create (C17.netlist ()) in
  for code = 0 to 31 do
    let stim =
      List.mapi
        (fun k name -> (name, bv 1 ((code lsr k) land 1)))
        [ "g1"; "g2"; "g3"; "g6"; "g7" ]
    in
    let hdl = List.concat (Sim.run d [ stim ]) in
    (* The published netlist orders inputs G1 G2 G3 G6 G7. *)
    let words = Array.init 5 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0) in
    let outs = Bitsim.step reference words in
    check_int
      (Printf.sprintf "g22 at %d" code)
      (outs.(0) land 1)
      (Bitvec.to_int (List.assoc "g22" hdl));
    check_int
      (Printf.sprintf "g23 at %d" code)
      (outs.(1) land 1)
      (Bitvec.to_int (List.assoc "g23" hdl))
  done

(* ------------------------------------------------------------------ *)
(* c432                                                               *)
(* ------------------------------------------------------------------ *)

let c432_stim a b c e =
  [ ("a", bv 9 a); ("b", bv 9 b); ("c", bv 9 c); ("e", bv 9 e) ]

let run_c432 a b c e =
  let d = C432.design () in
  List.concat (Sim.run d [ c432_stim a b c e ])

let test_c432_priority () =
  (* Bus a wins over b and c. *)
  let o = run_c432 0b000000001 0b100000000 0b111111111 0b111111111 in
  check_int "pa" 1 (Bitvec.to_int (List.assoc "pa" o));
  check_int "pb" 0 (Bitvec.to_int (List.assoc "pb" o));
  check_int "chan is line 1" 1 (Bitvec.to_int (List.assoc "chan" o))

let test_c432_enable_masks () =
  (* The only request sits on a disabled line: nothing wins. *)
  let o = run_c432 0b000000010 0 0 0b000000001 in
  check_int "pa" 0 (Bitvec.to_int (List.assoc "pa" o));
  check_int "chan" 0 (Bitvec.to_int (List.assoc "chan" o))

let test_c432_within_bus_priority () =
  (* Line 8 beats line 0 within the same bus. *)
  let o = run_c432 0b100000001 0 0 0b111111111 in
  check_int "chan is line 9" 9 (Bitvec.to_int (List.assoc "chan" o))

let test_c432_lower_bus_wins_when_upper_idle () =
  let o = run_c432 0 0 0b000010000 0b111111111 in
  check_int "pc" 1 (Bitvec.to_int (List.assoc "pc" o));
  check_int "chan" 5 (Bitvec.to_int (List.assoc "chan" o))

(* ------------------------------------------------------------------ *)
(* c499                                                               *)
(* ------------------------------------------------------------------ *)

let test_c499_patterns_distinct_weighty () =
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun p ->
      check_bool "weight >= 2" true
        (let rec pc v = if v = 0 then 0 else (v land 1) + pc (v lsr 1) in
         pc p >= 2);
      check_bool "distinct" false (Hashtbl.mem seen p);
      Hashtbl.add seen p ())
    C499.patterns;
  check_int "32 patterns" 32 (Array.length C499.patterns)

let c499_run data check r =
  let d = C499.design () in
  let stim = [ ("data", bv 32 data); ("check", bv 8 check); ("r", bv 1 r) ] in
  Bitvec.to_int (List.assoc "od" (List.concat (Sim.run d [ stim ])))

let test_c499_clean_word_passes () =
  let data = 0xDEADBEE5 land 0xFFFFFFFF in
  let check = C499.encode_checks ~data in
  check_int "no correction" data (c499_run data check 0)

let test_c499_corrects_single_bit () =
  let data = 0x12345678 in
  let check = C499.encode_checks ~data in
  for i = 0 to 31 do
    let corrupted = data lxor (1 lsl i) in
    check_int (Printf.sprintf "bit %d corrected" i) data (c499_run corrupted check 0)
  done

let test_c499_bypass () =
  let data = 0x0F0F0F0F in
  let check = C499.encode_checks ~data in
  let corrupted = data lxor 0b100 in
  check_int "bypass leaves error" corrupted (c499_run corrupted check 1)

let test_c499_check_bit_error_untouched () =
  (* A single check-bit error yields a weight-1 syndrome: no data bit is
     flipped. *)
  let data = 0xCAFEBABE land 0xFFFFFFFF in
  let check = C499.encode_checks ~data lxor 0b1 in
  check_int "data unchanged" data (c499_run data check 0)

(* Property: HDL model agrees with the executable specification. *)
let prop_c499_matches_reference =
  let gen = QCheck.Gen.(triple (int_bound 0x3FFFFFFF) (int_bound 255) bool) in
  QCheck.Test.make ~name:"c499 model = reference decoder" ~count:100
    (QCheck.make gen) (fun (data_lo, check, bypass) ->
      (* Build a 32-bit value from the 30-bit draw plus reuse of bits. *)
      let data = data_lo lor ((data_lo land 0b11) lsl 30) in
      let expected = C499.reference_decode ~data ~check ~bypass in
      c499_run data check (if bypass then 1 else 0) = expected)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "circuits.registry",
      [
        Alcotest.test_case "contents" `Quick test_registry_contents;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "all elaborate" `Quick test_all_designs_elaborate;
        Alcotest.test_case "all synthesise" `Quick test_all_designs_synthesize;
        Alcotest.test_case "netlists agree" `Quick test_all_designs_netlist_agrees;
        Alcotest.test_case "pretty roundtrip" `Quick test_all_designs_pretty_roundtrip;
        q prop_port_map_roundtrip;
      ] );
    ( "circuits.sequential",
      [
        Alcotest.test_case "b01 basic" `Quick test_b01_basic_run;
        Alcotest.test_case "b02 BCD" `Quick test_b02_accepts_bcd;
        Alcotest.test_case "b03 grant" `Quick test_b03_grant_behaviour;
        Alcotest.test_case "b03 round robin" `Quick test_b03_round_robin_rotates;
        Alcotest.test_case "b08 pattern match" `Quick test_b08_matches_pattern;
        Alcotest.test_case "b09 converter" `Quick test_b09_converts;
      ] );
    ( "circuits.c17",
      [
        Alcotest.test_case "structure" `Quick test_c17_netlist_structure;
        Alcotest.test_case "design = netlist" `Quick test_c17_design_matches_netlist;
      ] );
    ( "circuits.c432",
      [
        Alcotest.test_case "bus priority" `Quick test_c432_priority;
        Alcotest.test_case "enable masks" `Quick test_c432_enable_masks;
        Alcotest.test_case "line priority" `Quick test_c432_within_bus_priority;
        Alcotest.test_case "lower bus wins" `Quick test_c432_lower_bus_wins_when_upper_idle;
      ] );
    ( "circuits.c499",
      [
        Alcotest.test_case "patterns" `Quick test_c499_patterns_distinct_weighty;
        Alcotest.test_case "clean word" `Quick test_c499_clean_word_passes;
        Alcotest.test_case "corrects single bit" `Quick test_c499_corrects_single_bit;
        Alcotest.test_case "bypass" `Quick test_c499_bypass;
        Alcotest.test_case "check-bit error" `Quick test_c499_check_bit_error_untouched;
        q prop_c499_matches_reference;
      ] );
  ]
