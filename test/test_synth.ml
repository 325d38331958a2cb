(* Tests for lib/synth: word gadgets, lowering, sweep, mapping, and the
   central property that synthesis preserves behaviour. *)

module Bitvec = Mutsamp_util.Bitvec
module Prng = Mutsamp_util.Prng
module Ast = Mutsamp_hdl.Ast
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Stats = Mutsamp_netlist.Stats
module Wordlib = Mutsamp_synth.Wordlib
module Lower = Mutsamp_synth.Lower
module Optimize = Mutsamp_synth.Optimize
module Mapping = Mutsamp_synth.Mapping
module Flow = Mutsamp_synth.Flow
module B = Netlist.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

(* ------------------------------------------------------------------ *)
(* Wordlib: evaluate gadgets exhaustively on small widths             *)
(* ------------------------------------------------------------------ *)

(* Build a 2-operand gadget netlist with 3-bit inputs and evaluate it
   on concrete values via Bitsim. *)
let eval_gadget2 build_out a_val b_val =
  let b = B.create "gadget" in
  let a = Array.init 3 (fun i -> B.input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init 3 (fun i -> B.input b (Printf.sprintf "b%d" i)) in
  let out : Wordlib.word = build_out b a bb in
  Array.iteri (fun i net -> B.output b (Printf.sprintf "y%d" i) net) out;
  let nl = B.finalize b in
  let sim = Bitsim.create nl in
  let inputs =
    Array.init 6 (fun k ->
        let v = if k < 3 then (a_val lsr k) land 1 else (b_val lsr (k - 3)) land 1 in
        if v = 1 then Bitsim.all_ones else 0)
  in
  let outs = Bitsim.step sim inputs in
  Array.fold_left (fun (acc, i) w -> (acc lor ((w land 1) lsl i), i + 1)) (0, 0) outs
  |> fst

let test_wordlib_add_exhaustive () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int
        (Printf.sprintf "%d+%d" a b)
        ((a + b) land 7)
        (eval_gadget2 Wordlib.add a b)
    done
  done

let test_wordlib_sub_exhaustive () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int
        (Printf.sprintf "%d-%d" a b)
        ((a - b) land 7)
        (eval_gadget2 Wordlib.sub a b)
    done
  done

let test_wordlib_lt_exhaustive () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int
        (Printf.sprintf "%d<%d" a b)
        (if a < b then 1 else 0)
        (eval_gadget2 (fun bd x y -> [| Wordlib.lt bd x y |]) a b)
    done
  done

let test_wordlib_eq_exhaustive () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int
        (Printf.sprintf "%d=%d" a b)
        (if a = b then 1 else 0)
        (eval_gadget2 (fun bd x y -> [| Wordlib.eq bd x y |]) a b)
    done
  done

let test_wordlib_le_ge_gt () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int "le" (if a <= b then 1 else 0)
        (eval_gadget2 (fun bd x y -> [| Wordlib.le bd x y |]) a b);
      check_int "ge" (if a >= b then 1 else 0)
        (eval_gadget2 (fun bd x y -> [| Wordlib.ge bd x y |]) a b);
      check_int "gt" (if a > b then 1 else 0)
        (eval_gadget2 (fun bd x y -> [| Wordlib.gt bd x y |]) a b)
    done
  done

let test_wordlib_logic () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int "and" (a land b) (eval_gadget2 Wordlib.logand a b);
      check_int "nand" (lnot (a land b) land 7) (eval_gadget2 Wordlib.lognand a b);
      check_int "xor" (a lxor b) (eval_gadget2 Wordlib.logxor a b)
    done
  done

let test_wordlib_resize () =
  let b = B.create "t" in
  let x = Array.init 2 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let wide = Wordlib.resize b x 4 in
  check_int "extended width" 4 (Array.length wide);
  let narrow = Wordlib.resize b wide 1 in
  check_int "truncated width" 1 (Array.length narrow);
  check_int "lsb preserved" x.(0) narrow.(0)

(* ------------------------------------------------------------------ *)
(* Lowering + sweep                                                   *)
(* ------------------------------------------------------------------ *)

let counter_src =
  {|design counter is
  input en : bit;
  output q : unsigned(3);
  output wrap : bit;
  reg count : unsigned(3) := 0;
begin
  q := count;
  wrap := '0';
  if en = '1' then
    if count = 7 then
      count := 0;
      wrap := '1';
    else
      count := count + 1;
    end if;
  end if;
end design;|}

let alu_src =
  {|design mini_alu is
  input a : unsigned(4);
  input b : unsigned(4);
  input op : unsigned(2);
  output y : unsigned(4);
  output flag : bit;
begin
  flag := a < b;
  case op is
    when 0 => y := a + b;
    when 1 => y := a - b;
    when 2 => y := a and b;
    when others => y := a xor b;
  end case;
end design;|}

let fsm_src =
  {|design fsm is
  input go : bit;
  input stop : bit;
  output busy : bit;
  output done_o : bit;
  reg state : unsigned(2) := 0;
  const IDLE : unsigned(2) := 0;
  const RUN : unsigned(2) := 1;
  const DONE : unsigned(2) := 2;
begin
  busy := '0';
  done_o := '0';
  case state is
    when 0 =>
      if go = '1' then
        state := RUN;
      end if;
    when 1 =>
      busy := '1';
      if stop = '1' then
        state := DONE;
      end if;
    when 2 =>
      done_o := '1';
      state := IDLE;
    when others =>
      state := IDLE;
  end case;
end design;|}

let test_lower_counter_structure () =
  let d = parse counter_src in
  let nl = Lower.run d in
  check_int "input bits" 1 (Array.length nl.Netlist.input_nets);
  check_int "output bits" 4 (Array.length nl.Netlist.output_list);
  check_int "dffs" 3 (Netlist.num_dffs nl)

let test_lower_rejects_unelaborated () =
  let raw = Mutsamp_robust.Error.ok_exn (Parser.design_result counter_src) in
  (try
     ignore (Lower.run raw);
     Alcotest.fail "should reject"
   with Lower.Synth_error _ -> ())

let test_sweep_removes_dead_logic () =
  (* A var computed but never used downstream must vanish. *)
  let d =
    parse
      {|design dead is
  input a : unsigned(4);
  input b : unsigned(4);
  output y : bit;
  var unused : unsigned(4);
begin
  unused := a + b;
  y := a[0];
end design;|}
  in
  let raw = Lower.run d in
  let swept, removed = Optimize.sweep_stats raw in
  check_bool "something removed" true (removed > 0);
  check_bool "fewer gates" true (Netlist.num_gates swept < Netlist.num_gates raw);
  (* Inputs survive sweeping even when unused. *)
  check_int "inputs kept" 8 (Array.length swept.Netlist.input_nets)

let test_sweep_preserves_interface_order () =
  let d = parse alu_src in
  let raw = Lower.run d in
  let swept = Optimize.sweep raw in
  Alcotest.(check (array string))
    "input names"
    (Netlist.input_names raw)
    (Netlist.input_names swept);
  Alcotest.(check (array string))
    "output names"
    (Array.map fst raw.Netlist.output_list)
    (Array.map fst swept.Netlist.output_list)

(* ------------------------------------------------------------------ *)
(* Mapping + behavioural equivalence                                  *)
(* ------------------------------------------------------------------ *)

(* The central synthesis-correctness check: for random stimuli, the HDL
   simulator and the synthesised netlist agree cycle by cycle. *)
let agree_on_random_sequences ?(sequences = 20) ?(length = 16) src =
  let d = parse src in
  let nl, mapping = Flow.synthesize_mapped d in
  ignore nl;
  let prng = Prng.create 0xC0FFEE in
  let net_sim = Bitsim.create (Mapping.netlist mapping) in
  for _ = 1 to sequences do
    let seq = Stimuli.random_sequence prng d length in
    let hdl_outs = Sim.run d seq in
    Bitsim.reset net_sim;
    List.iter2
      (fun stim expected ->
        let words = Bitsim.step net_sim (Mapping.pack_stimulus mapping stim) in
        let got = Mapping.unpack_outputs mapping words ~lane:0 in
        if not (Sim.outputs_equal got expected) then
          Alcotest.fail
            (Printf.sprintf "%s: netlist diverges from HDL sim" d.Ast.name))
      seq hdl_outs
  done

let test_equiv_counter () = agree_on_random_sequences counter_src
let test_equiv_alu () = agree_on_random_sequences alu_src
let test_equiv_fsm () = agree_on_random_sequences fsm_src

let test_equiv_alu_exhaustive () =
  (* 10 input bits: check all 1024 vectors via lane packing. *)
  let d = parse alu_src in
  let _, mapping = Flow.synthesize_mapped d in
  let net_sim = Bitsim.create (Mapping.netlist mapping) in
  let all = Array.of_list (List.init (1 lsl Stimuli.input_bits d) (Stimuli.of_code d)) in
  let chunks = (Array.length all + Bitsim.word_bits - 1) / Bitsim.word_bits in
  for c = 0 to chunks - 1 do
    let lo = c * Bitsim.word_bits in
    let batch = Array.sub all lo (min Bitsim.word_bits (Array.length all - lo)) in
    let inputs = Array.make (Array.length (Mapping.netlist mapping).Netlist.input_nets) 0 in
    Array.iteri
      (fun lane stim ->
        Mapping.set_inputs mapping stim (fun k -> inputs.(k) <- inputs.(k) lor (1 lsl lane)))
      batch;
    let words = Bitsim.step net_sim inputs in
    Array.iteri
      (fun lane stim ->
        let got = Mapping.unpack_outputs mapping words ~lane in
        let expected = List.concat (Sim.run d [ stim ]) in
        check_bool "lane agrees" true (Sim.outputs_equal got expected))
      batch
  done

let test_mapping_missing_input () =
  let d = parse alu_src in
  let _, mapping = Flow.synthesize_mapped d in
  (try
     ignore (Mapping.pack_stimulus mapping [ ("a", bv 4 0) ]);
     Alcotest.fail "should fail"
   with Mapping.Mapping_error _ -> ())

let test_bit_name () =
  Alcotest.(check string) "wide" "data[3]" (Lower.bit_name "data" 8 3);
  Alcotest.(check string) "single" "en" (Lower.bit_name "en" 1 0);
  List.iter
    (fun i ->
      Alcotest.(check string)
        (string_of_int i) (Printf.sprintf "w[%d]" i) (Lower.bit_name "w" 2048 i))
    [ 0; 9; 10; 99; 100; 127; 1000; 2047; -1 ]

(* Property: random expression designs synthesise correctly. *)
let prop_random_expr_designs =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 1000000) (int_range 1 3) >|= fun (seed, depth) ->
      (seed, depth))
  in
  QCheck.Test.make ~name:"random designs: HDL sim = netlist sim" ~count:60
    (QCheck.make gen) (fun (seed, depth) ->
      let prng = Prng.create seed in
      (* Random expression over a, b (4-bit) and c (1-bit). *)
      let rec gen_e d w =
        if d = 0 then
          match Prng.int prng 3 with
          | 0 -> if w = 4 then Ast.Ref "a" else Ast.Ref "c"
          | 1 -> if w = 4 then Ast.Ref "b" else Ast.Ref "c"
          | _ -> Ast.const ~width:w (Prng.int prng (1 lsl w))
        else
          match Prng.int prng 6 with
          | 0 -> Ast.Unop (Ast.Not, gen_e (d - 1) w)
          | 1 ->
            let ops = [| Ast.Add; Ast.Sub; Ast.And; Ast.Or; Ast.Xor; Ast.Nand; Ast.Nor; Ast.Xnor |] in
            Ast.Binop (Prng.pick prng ops, gen_e (d - 1) w, gen_e (d - 1) w)
          | 2 when w = 1 ->
            let ops = [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |] in
            Ast.Binop (Prng.pick prng ops, gen_e (d - 1) 4, gen_e (d - 1) 4)
          | 3 when w = 1 -> Ast.Bit (gen_e (d - 1) 4, Prng.int prng 4)
          | 4 when w = 4 -> Ast.Resize (gen_e (d - 1) 1, 4)
          | _ -> gen_e 0 w
      in
      let decls =
        [
          { Ast.name = "a"; width = 4; kind = Ast.Input };
          { Ast.name = "b"; width = 4; kind = Ast.Input };
          { Ast.name = "c"; width = 1; kind = Ast.Input };
          { Ast.name = "y"; width = 4; kind = Ast.Output };
          { Ast.name = "z"; width = 1; kind = Ast.Output };
        ]
      in
      let d =
        {
          Ast.name = "rand";
          decls;
          body =
            [ Ast.Assign ("y", gen_e depth 4); Ast.Assign ("z", gen_e depth 1) ];
        }
      in
      let _, mapping = Flow.synthesize_mapped d in
      let net_sim = Bitsim.create (Mapping.netlist mapping) in
      List.for_all
        (fun stim ->
          let words = Bitsim.step net_sim (Mapping.pack_stimulus mapping stim) in
          let got = Mapping.unpack_outputs mapping words ~lane:0 in
          let expected = List.concat (Sim.run d [ stim ]) in
          Sim.outputs_equal got expected)
        (List.init 32 (fun _ -> Stimuli.random prng d)))

(* Property: whole random designs — statements, control flow, registers
   — synthesise correctly. This exercises if-merging, the one-hot case
   lowering and register next-state muxing, beyond the pure-expression
   fuzz above. *)
let prop_random_stmt_designs =
  let gen = QCheck.Gen.int_range 0 1000000 in
  QCheck.Test.make ~name:"random FSM designs: HDL sim = netlist sim" ~count:40
    (QCheck.make gen) (fun seed ->
      let prng = Prng.create seed in
      let d = Random_fsm.design prng in
      let _, mapping = Flow.synthesize_mapped d in
      let sim = Bitsim.create (Mapping.netlist mapping) in
      Bitsim.reset sim;
      let seq = Stimuli.random_sequence prng d 16 in
      let hdl = Sim.run d seq in
      List.for_all2
        (fun stim expected ->
          let words = Bitsim.step sim (Mapping.pack_stimulus mapping stim) in
          Sim.outputs_equal (Mapping.unpack_outputs mapping words ~lane:0) expected)
        seq hdl)

(* ------------------------------------------------------------------ *)
(* Synthesis output pins                                              *)
(* ------------------------------------------------------------------ *)

(* A canonical text form of a netlist: every gate's kind (with its
   payload) and fanins, then the input nets, the named outputs and the
   flip-flop nets. Its digest pins synthesis gate for gate; [Marshal]
   is avoided because its bytes depend on the compiler version. *)
let netlist_text buf (nl : Netlist.t) =
  let add_ints a = Array.iter (fun i -> Buffer.add_char buf ' '; Buffer.add_string buf (string_of_int i)) a in
  Array.iter
    (fun (g : Mutsamp_netlist.Gate.t) ->
      Buffer.add_string buf (Mutsamp_netlist.Gate.kind_name g.kind);
      (match g.kind with
       | Mutsamp_netlist.Gate.Pi name -> Buffer.add_string buf (" " ^ name)
       | Mutsamp_netlist.Gate.Dff init -> Buffer.add_string buf (if init then " 1" else " 0")
       | _ -> ());
      Buffer.add_string buf " :";
      add_ints g.fanins;
      Buffer.add_char buf '\n')
    nl.gates;
  Buffer.add_string buf "in";
  add_ints nl.input_nets;
  Buffer.add_string buf "\nout";
  Array.iter
    (fun (name, net) -> Buffer.add_string buf (Printf.sprintf " %s=%d" name net))
    nl.output_list;
  Buffer.add_string buf "\ndff";
  add_ints nl.dff_nets;
  Buffer.add_string buf "\n--\n"

(* Digests of the design's netlist and of every mutant's, in mutant
   order, recorded from the synthesis these tests were written against.
   A change to lowering, the builder or the sweep that moves any gate
   of any mutant changes them. *)
let synthesis_pins =
  [
    ("c432", "d89ea23db4a2bed931f7e731ac7c8cf5", "314861c761d5b117b0d7bcdd9c6bb421");
    ("c499", "d228a7f86947c41bbcc39972b6972529", "596a41d474a78c103c88d89fe710189d");
    ("b01", "e6f651743ae268bafef63e1175492fc0", "140f95d3d3396a713ef24fc97fef81e0");
    ("b03", "83eda29af9bb2b24c9ba0f80e461723d", "aca180c00406631469c848b34ad03b2b");
  ]

let test_synthesis_pinned () =
  List.iter
    (fun (name, design_digest, mutants_digest) ->
      let d = (Option.get (Mutsamp_circuits.Registry.find name)).design () in
      let digest_of f =
        let buf = Buffer.create (1 lsl 16) in
        f buf;
        Digest.to_hex (Digest.string (Buffer.contents buf))
      in
      Alcotest.(check string)
        (name ^ " design") design_digest
        (digest_of (fun buf -> netlist_text buf (Flow.synthesize d)));
      Alcotest.(check string)
        (name ^ " mutants") mutants_digest
        (digest_of (fun buf ->
             List.iter
               (fun (m : Mutsamp_mutation.Mutant.t) ->
                 netlist_text buf (Flow.synthesize m.design))
               (Mutsamp_mutation.Generate.all d))))
    synthesis_pins

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "synth.wordlib",
      [
        Alcotest.test_case "add exhaustive" `Quick test_wordlib_add_exhaustive;
        Alcotest.test_case "sub exhaustive" `Quick test_wordlib_sub_exhaustive;
        Alcotest.test_case "lt exhaustive" `Quick test_wordlib_lt_exhaustive;
        Alcotest.test_case "eq exhaustive" `Quick test_wordlib_eq_exhaustive;
        Alcotest.test_case "le/ge/gt" `Quick test_wordlib_le_ge_gt;
        Alcotest.test_case "logic" `Quick test_wordlib_logic;
        Alcotest.test_case "resize" `Quick test_wordlib_resize;
      ] );
    ( "synth.lower",
      [
        Alcotest.test_case "counter structure" `Quick test_lower_counter_structure;
        Alcotest.test_case "rejects unelaborated" `Quick test_lower_rejects_unelaborated;
        Alcotest.test_case "sweep removes dead" `Quick test_sweep_removes_dead_logic;
        Alcotest.test_case "sweep preserves interface" `Quick test_sweep_preserves_interface_order;
        Alcotest.test_case "bit names" `Quick test_bit_name;
        Alcotest.test_case "pinned netlists" `Quick test_synthesis_pinned;
      ] );
    ( "synth.equivalence",
      [
        Alcotest.test_case "counter" `Quick test_equiv_counter;
        Alcotest.test_case "alu" `Quick test_equiv_alu;
        Alcotest.test_case "fsm" `Quick test_equiv_fsm;
        Alcotest.test_case "alu exhaustive" `Quick test_equiv_alu_exhaustive;
        Alcotest.test_case "mapping missing input" `Quick test_mapping_missing_input;
        q prop_random_expr_designs;
        q prop_random_stmt_designs;
      ] );
  ]
