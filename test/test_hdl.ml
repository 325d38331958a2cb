(* Tests for lib/hdl: lexer, parser round-trips, checker, simulator. *)

module Bitvec = Mutsamp_util.Bitvec
module Ast = Mutsamp_hdl.Ast
module Lexer = Mutsamp_hdl.Lexer
module Parser = Mutsamp_hdl.Parser
module Pretty = Mutsamp_hdl.Pretty
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v

(* A small synchronous counter with an enable and wrap output. *)
let counter_src =
  {|
-- 3-bit counter with enable
design counter is
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
end design;
|}

(* Purely combinational majority-of-three with an xor side output. *)
let major_src =
  {|
design major is
  input a : bit;
  input b : bit;
  input c : bit;
  output m : bit;
  output p : bit;
begin
  m := (a and b) or (a and c) or (b and c);
  p := a xor b xor c;
end design;
|}

(* Unwrap the result-typed parser entry point: these tests feed known
   good sources, so an error is a straight failure. *)
let design_of_string src =
  Mutsamp_robust.Error.ok_exn (Parser.design_result src)

let parse_design src = Check.elaborate (design_of_string src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "x := y + 5'b00101; -- comment\nz := '1';" in
  check_int "token count" 11 (Array.length toks);
  (match toks.(0) with
   | Lexer.IDENT "x", 1 -> ()
   | _ -> Alcotest.fail "expected IDENT x at line 1");
  (match toks.(2) with
   | Lexer.IDENT "y", _ -> ()
   | _ -> Alcotest.fail "expected IDENT y");
  (match toks.(4) with
   | Lexer.SIZED (5, 5), _ -> ()
   | _ -> Alcotest.fail "expected sized literal 5'b00101");
  (match toks.(8) with
   | Lexer.SIZED (1, 1), 2 -> ()
   | _ -> Alcotest.fail "expected '1' bit literal at line 2")

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\nc" in
  (match toks.(2) with
   | Lexer.IDENT "c", 3 -> ()
   | _ -> Alcotest.fail "expected c at line 3")

let test_lexer_bad_char () =
  Alcotest.check_raises "illegal" (Lexer.Lex_error "line 1: illegal character '$'")
    (fun () -> ignore (Lexer.tokenize "a $ b"))

let test_lexer_bad_sized () =
  Alcotest.check_raises "width mismatch"
    (Lexer.Lex_error "line 1: sized literal: 3 bits given, width says 4")
    (fun () -> ignore (Lexer.tokenize "4'b101"))

let test_lexer_keywords_not_idents () =
  let toks = Lexer.tokenize "and AND" in
  (match toks.(0), toks.(1) with
   | (Lexer.KW "and", _), (Lexer.KW "and", _) -> ()
   | _ -> Alcotest.fail "keywords are case-insensitive")

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_counter () =
  let d = design_of_string counter_src in
  Alcotest.(check string) "name" "counter" d.Ast.name;
  check_int "decls" 4 (List.length d.Ast.decls);
  check_int "inputs" 1 (List.length (Ast.inputs d));
  check_int "outputs" 2 (List.length (Ast.outputs d));
  check_int "regs" 1 (List.length (Ast.regs d))

let test_parse_precedence () =
  (* "a and b = c" must parse as "a and (b = c)". *)
  let e = Parser.expr_of_string "a and b = c" in
  (match e with
   | Ast.Binop (Ast.And, Ast.Ref "a", Ast.Binop (Ast.Eq, Ast.Ref "b", Ast.Ref "c")) -> ()
   | _ -> Alcotest.fail "logical binds looser than relational");
  let e2 = Parser.expr_of_string "a + b & c" in
  (match e2 with
   | Ast.Binop (Ast.Add, Ast.Ref "a", Ast.Concat (Ast.Ref "b", Ast.Ref "c")) -> ()
   | _ -> Alcotest.fail "concat binds tighter than additive")

let test_parse_elsif_desugars () =
  let d =
    design_of_string
      {|
design t is
  input a : bit;
  output y : unsigned(2);
begin
  if a = '1' then
    y := 1;
  elsif a = '0' then
    y := 2;
  else
    y := 3;
  end if;
end design;
|}
  in
  (match d.Ast.body with
   | [ Ast.If (_, _, [ Ast.If (_, _, _) ]) ] -> ()
   | _ -> Alcotest.fail "elsif should nest")

let test_parse_case_choices () =
  let d =
    design_of_string
      {|
design t is
  input s : unsigned(2);
  output y : bit;
begin
  case s is
    when 0 | 1 =>
      y := '1';
    when others =>
      y := '0';
  end case;
end design;
|}
  in
  (match d.Ast.body with
   | [ Ast.Case (_, [ (choices, _) ], Some _) ] -> check_int "choices" 2 (List.length choices)
   | _ -> Alcotest.fail "case shape")

let test_parse_error_reports_line () =
  (match Parser.design_result "design t is\nbogus\nbegin\nend design;" with
   | Ok _ -> Alcotest.fail "should not parse"
   | Error (Mutsamp_robust.Error.Parse_error { loc; _ }) ->
     check_bool "carries line" true (loc.Mutsamp_robust.Error.line <> None)
   | Error e ->
     Alcotest.fail ("wrong error: " ^ Mutsamp_robust.Error.to_string e))

let test_parse_pretty_roundtrip_designs () =
  List.iter
    (fun src ->
      let d = parse_design src in
      let d2 = Check.elaborate (design_of_string (Pretty.design d)) in
      check_bool "roundtrip equal" true (Ast.equal_design d d2))
    [ counter_src; major_src ]

(* Random elaborated expressions over a fixed context, for the
   parse-pretty round-trip and the simulator cross-check. *)

let ctx_decls : Ast.decl list =
  [
    { Ast.name = "a"; width = 4; kind = Ast.Input };
    { Ast.name = "b"; width = 4; kind = Ast.Input };
    { Ast.name = "c"; width = 1; kind = Ast.Input };
    { Ast.name = "y"; width = 4; kind = Ast.Output };
    { Ast.name = "z"; width = 1; kind = Ast.Output };
  ]

(* Generates an expression of the requested width, using only sized
   literals so the result is already elaborated. *)
let rec gen_expr_width ~fuel width st =
  let open QCheck.Gen in
  let leaf =
    if width = 4 then
      oneof
        [ return (Ast.Ref "a"); return (Ast.Ref "b");
          (int_range 0 15 >|= fun v -> Ast.const ~width:4 v) ]
    else
      oneof
        [ return (Ast.Ref "c");
          (int_range 0 1 >|= fun v -> Ast.const ~width:1 v) ]
  in
  if fuel = 0 then leaf st
  else
    let sub = gen_expr_width ~fuel:(fuel - 1) in
    let arms =
      [
        leaf;
        (sub width >|= fun e -> Ast.Unop (Ast.Not, e));
        ( pair (oneofl Ast.[ Add; Sub; And; Or; Xor; Nand; Nor; Xnor ])
            (pair (sub width) (sub width))
        >|= fun (op, (x, y)) -> Ast.Binop (op, x, y) );
      ]
      @
      (if width = 1 then
         [
           ( pair (oneofl Ast.[ Eq; Neq; Lt; Le; Gt; Ge ]) (pair (sub 4) (sub 4))
           >|= fun (op, (x, y)) -> Ast.Binop (op, x, y) );
           (pair (sub 4) (int_range 0 3) >|= fun (e, i) -> Ast.Bit (e, i));
         ]
       else
         [
           (sub 1 >|= fun e -> Ast.Resize (e, 4));
           ( pair (sub 4) (int_range 0 2)
           >|= fun (e, lo) -> Ast.Resize (Ast.Slice (e, lo + 1, lo), 4) );
         ])
    in
    oneof arms st

let arb_expr width =
  QCheck.make ~print:Pretty.expr (gen_expr_width ~fuel:4 width)

let prop_expr_roundtrip width =
  QCheck.Test.make
    ~name:(Printf.sprintf "parse(pretty(e)) = e (width %d)" width)
    ~count:400 (arb_expr width)
    (fun e -> Ast.equal_expr (Parser.expr_of_string (Pretty.expr e)) e)

(* Reference evaluator: straightforward Bitvec interpretation, entirely
   independent of the closure-compiled simulator. *)
let rec eval_ref env = function
  | Ast.Const l -> bv (Option.get l.Ast.width) l.Ast.value
  | Ast.Ref name -> List.assoc name env
  | Ast.Unop (Ast.Not, e) -> Bitvec.lognot (eval_ref env e)
  | Ast.Binop (op, a, b) ->
    let va = eval_ref env a and vb = eval_ref env b in
    let bool_bv p = if p then bv 1 1 else bv 1 0 in
    (match op with
     | Ast.Add -> Bitvec.add va vb
     | Ast.Sub -> Bitvec.sub va vb
     | Ast.And -> Bitvec.logand va vb
     | Ast.Or -> Bitvec.logor va vb
     | Ast.Xor -> Bitvec.logxor va vb
     | Ast.Nand -> Bitvec.lognot (Bitvec.logand va vb)
     | Ast.Nor -> Bitvec.lognot (Bitvec.logor va vb)
     | Ast.Xnor -> Bitvec.lognot (Bitvec.logxor va vb)
     | Ast.Eq -> bool_bv (Bitvec.equal va vb)
     | Ast.Neq -> bool_bv (not (Bitvec.equal va vb))
     | Ast.Lt -> bool_bv (Bitvec.lt va vb)
     | Ast.Le -> bool_bv (Bitvec.le va vb)
     | Ast.Gt -> bool_bv (Bitvec.lt vb va)
     | Ast.Ge -> bool_bv (Bitvec.le vb va))
  | Ast.Bit (e, i) -> bv 1 (if Bitvec.bit (eval_ref env e) i then 1 else 0)
  | Ast.Slice (e, hi, lo) -> Bitvec.slice (eval_ref env e) ~hi ~lo
  | Ast.Concat (a, b) -> Bitvec.concat (eval_ref env a) (eval_ref env b)
  | Ast.Resize (e, w) -> Bitvec.resize (eval_ref env e) w

let prop_sim_matches_reference width =
  let out_name = if width = 4 then "y" else "z" in
  let gen =
    QCheck.Gen.(
      pair
        (gen_expr_width ~fuel:4 width)
        (triple (int_range 0 15) (int_range 0 15) (int_range 0 1)))
  in
  let print (e, (a, b, c)) = Printf.sprintf "%s with a=%d b=%d c=%d" (Pretty.expr e) a b c in
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled sim matches reference eval (width %d)" width)
    ~count:400 (QCheck.make ~print gen)
    (fun (e, (a, b, c)) ->
      let d = { Ast.name = "t"; decls = ctx_decls; body = [ Ast.Assign (out_name, e) ] } in
      let stim = [ ("a", bv 4 a); ("b", bv 4 b); ("c", bv 1 c) ] in
      let outs = List.concat (Sim.run d [ stim ]) in
      let env = stim in
      Bitvec.equal (List.assoc out_name outs) (eval_ref env e))

(* ------------------------------------------------------------------ *)
(* Check                                                              *)
(* ------------------------------------------------------------------ *)

let expect_check_error src =
  match Check.elaborate (design_of_string src) with
  | exception Check.Check_error _ -> ()
  | _ -> Alcotest.fail "expected Check_error"

let test_check_sizes_literals () =
  let d = parse_design counter_src in
  check_bool "elaborated" true (Check.is_elaborated d)

let test_check_duplicate_decl () =
  expect_check_error
    "design t is input a : bit; input a : bit; output y : bit; begin y := a; end design;"

let test_check_undeclared () =
  expect_check_error
    "design t is input a : bit; output y : bit; begin y := zz; end design;"

let test_check_width_mismatch () =
  expect_check_error
    "design t is input a : unsigned(4); output y : bit; begin y := a; end design;"

let test_check_output_write_only () =
  expect_check_error
    "design t is input a : bit; output y : bit; begin y := a; y := y and a; end design;"

let test_check_assign_to_input () =
  expect_check_error
    "design t is input a : bit; output y : bit; begin a := '1'; y := '0'; end design;"

let test_check_literal_too_big () =
  expect_check_error
    "design t is input a : unsigned(2); output y : bit; begin y := a = 9; end design;"

let test_check_case_incomplete () =
  expect_check_error
    {|design t is input s : unsigned(2); output y : bit;
      begin case s is when 0 => y := '1'; end case; end design;|}

let test_check_case_duplicate () =
  expect_check_error
    {|design t is input s : unsigned(2); output y : bit;
      begin case s is when 1 | 1 => y := '1'; when others => null; end case; end design;|}

let test_check_case_full_coverage_ok () =
  let d =
    parse_design
      {|design t is input s : bit; output y : bit;
        begin case s is when 0 => y := '1'; when 1 => y := '0'; end case; end design;|}
  in
  check_bool "ok" true (Check.is_elaborated d)

let test_check_no_inputs_rejected () =
  expect_check_error "design t is output y : bit; begin y := '1'; end design;"

let test_check_unsized_both_sides () =
  expect_check_error
    "design t is input a : bit; output y : bit; begin y := 1 = 1; end design;"

let test_check_more_errors () =
  (* A batch of rejection paths, one-line each. *)
  List.iter expect_check_error
    [
      (* bit index out of range *)
      "design t is input a : unsigned(3); output y : bit; begin y := a[5]; end design;";
      (* slice reversed *)
      "design t is input a : unsigned(4); output y : unsigned(2); begin y := a[1:2]; end design;";
      (* slice beyond width *)
      "design t is input a : unsigned(4); output y : unsigned(2); begin y := a[4:3]; end design;";
      (* reg reset value too large *)
      "design t is input a : bit; output y : bit; reg r : unsigned(2) := 9; begin y := a; end design;";
      (* const value too large *)
      "design t is input a : bit; output y : bit; const K : unsigned(2) := 5; begin y := a; end design;";
      (* assignment to constant *)
      "design t is input a : bit; output y : bit; const K : bit := 0; begin K := a; y := a; end design;";
      (* if condition must be 1 bit *)
      "design t is input a : unsigned(2); output y : bit; begin if a then y := '1'; end if; end design;";
      (* case choice too large for scrutinee *)
      {|design t is input s : unsigned(2); output y : bit;
        begin case s is when 9 => y := '1'; when others => null; end case; end design;|};
      (* concat operand unsized *)
      "design t is input a : bit; output y : unsigned(2); begin y := a & 1; end design;";
      (* bit-select of an unsized literal *)
      "design t is input a : bit; output y : bit; begin y := 5[0]; end design;";
    ]

let test_parse_more_errors () =
  let expect_parse_error src =
    match Parser.design_result src with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  List.iter expect_parse_error
    [
      "design t is begin end";  (* missing 'design;' tail *)
      "design t is input a bit; begin end design;";  (* missing ':' *)
      "design t is input a : bit; begin a = '1'; end design;";  (* '=' not ':=' *)
      "design t is input a : bit; begin y := (a; end design;";  (* unbalanced paren *)
      "design t is input a : bit; begin case a is when => null; end case; end design;";
      "design t is input a : unsigned(0); begin null; end design;";  (* width 0 *)
    ]

let test_check_combinational () =
  check_bool "major" true (Check.is_combinational (parse_design major_src));
  check_bool "counter" false (Check.is_combinational (parse_design counter_src))

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_counter_counts () =
  let d = parse_design counter_src in
  let en = [ ("en", bv 1 1) ] in
  let outs = Sim.run d [ en; en; en ] in
  let q_of obs = Bitvec.to_int (List.assoc "q" obs) in
  (match outs with
   | [ o1; o2; o3 ] ->
     check_int "cycle1 shows reset value" 0 (q_of o1);
     check_int "cycle2" 1 (q_of o2);
     check_int "cycle3" 2 (q_of o3)
   | _ -> Alcotest.fail "expected three observations")

let test_sim_counter_hold_when_disabled () =
  let d = parse_design counter_src in
  let en = [ ("en", bv 1 1) ] and dis = [ ("en", bv 1 0) ] in
  let outs = Sim.run d [ en; dis; dis; en ] in
  let qs = List.map (fun o -> Bitvec.to_int (List.assoc "q" o)) outs in
  Alcotest.(check (list int)) "holds at 1" [ 0; 1; 1; 1 ] qs

let test_sim_counter_wraps () =
  let d = parse_design counter_src in
  let en = [ ("en", bv 1 1) ] in
  let outs = Sim.run d (List.init 9 (fun _ -> en)) in
  let last = List.nth outs 8 in
  check_int "wrapped to zero" 0 (Bitvec.to_int (List.assoc "q" last));
  let cycle8 = List.nth outs 7 in
  check_int "wrap pulse" 1 (Bitvec.to_int (List.assoc "wrap" cycle8))

let test_sim_reg_reads_old_value () =
  (* A register swap executes with pre-cycle semantics. *)
  let d =
    parse_design
      {|design swap is
  input go : bit;
  output ya : unsigned(2);
  output yb : unsigned(2);
  reg ra : unsigned(2) := 1;
  reg rb : unsigned(2) := 2;
begin
  ya := ra;
  yb := rb;
  if go = '1' then
    ra := rb;
    rb := ra;
  end if;
end design;|}
  in
  let go = [ ("go", bv 1 1) ] in
  let outs = Sim.run d [ go; go ] in
  (match outs with
   | [ _; o2 ] ->
     check_int "ra got old rb" 2 (Bitvec.to_int (List.assoc "ya" o2));
     check_int "rb got old ra" 1 (Bitvec.to_int (List.assoc "yb" o2))
   | _ -> Alcotest.fail "two observations expected")

let test_sim_var_immediate () =
  let d =
    parse_design
      {|design v is
  input a : unsigned(3);
  output y : unsigned(3);
  var t : unsigned(3);
begin
  t := a + 1;
  t := t + 1;
  y := t;
end design;|}
  in
  let outs = Sim.run d [ [ ("a", bv 3 2) ] ] in
  check_int "vars update immediately" 4 (Bitvec.to_int (List.assoc "y" (List.hd outs)))

let test_sim_missing_input () =
  let d = parse_design major_src in
  (try
     ignore (Sim.run d [ [ ("a", bv 1 0); ("b", bv 1 0) ] ]);
     Alcotest.fail "should raise"
   with Sim.Sim_error _ -> ())

let test_sim_unknown_input () =
  let d = parse_design major_src in
  (try
     ignore
       (Sim.run d [ [ ("a", bv 1 0); ("b", bv 1 0); ("c", bv 1 0); ("zz", bv 1 0) ] ]);
     Alcotest.fail "should raise"
   with Sim.Sim_error _ -> ())

let test_sim_major_truth_table () =
  let d = parse_design major_src in
  for v = 0 to 7 do
    let a = (v lsr 2) land 1 and b = (v lsr 1) land 1 and c = v land 1 in
    let stim = [ ("a", bv 1 a); ("b", bv 1 b); ("c", bv 1 c) ] in
    let outs = List.hd (Sim.run d [ stim ]) in
    check_int
      (Printf.sprintf "major(%d%d%d)" a b c)
      (if a + b + c >= 2 then 1 else 0)
      (Bitvec.to_int (List.assoc "m" outs));
    check_int
      (Printf.sprintf "parity(%d%d%d)" a b c)
      ((a + b + c) land 1)
      (Bitvec.to_int (List.assoc "p" outs))
  done

let test_sim_reset_restores () =
  let d = parse_design counter_src in
  let t = Sim.create d in
  Sim.reset t;
  ignore (Sim.step t [ ("en", bv 1 1) ]);
  ignore (Sim.step t [ ("en", bv 1 1) ]);
  Sim.reset t;
  let o = Sim.step t [ ("en", bv 1 0) ] in
  check_int "back to reset" 0 (Bitvec.to_int (List.assoc "q" o))

(* The register file read and written back: a saved state, restored
   after further steps, steps exactly as it did when saved. *)
let test_sim_state_roundtrip () =
  let d = parse_design counter_src in
  let t = Sim.create d in
  let en = [ ("en", bv 1 1) ] in
  let q_of obs = Bitvec.to_int (List.assoc "q" obs) in
  Alcotest.(check (array int)) "reset state" [| 0 |] (Sim.state t);
  ignore (Sim.step t en);
  ignore (Sim.step t en);
  let saved = Sim.state t in
  Alcotest.(check (array int)) "after two steps" [| 2 |] saved;
  ignore (Sim.step t en);
  ignore (Sim.step t en);
  Sim.set_state t saved;
  Alcotest.(check (array int)) "restored" saved (Sim.state t);
  check_int "steps from the restored state" 2 (q_of (Sim.step t en));
  Sim.set_state t [| 7 |];
  let o = Sim.step t en in
  check_int "q from a written state" 7 (q_of o);
  check_int "wraps from a written state" 1 (Bitvec.to_int (List.assoc "wrap" o));
  Alcotest.(check (array int)) "next state" [| 0 |] (Sim.state t)

let test_sim_set_state_wrong_length () =
  let t = Sim.create (parse_design counter_src) in
  List.iter
    (fun values ->
      match Sim.set_state t values with
      | () -> Alcotest.fail "should reject a wrong-length state"
      | exception Invalid_argument _ -> ())
    [ [||]; [| 1; 2 |] ];
  Alcotest.(check (array int)) "state untouched" [| 0 |] (Sim.state t)

let test_sim_rejects_unelaborated () =
  let raw = design_of_string counter_src in
  (try
     ignore (Sim.create raw);
     Alcotest.fail "should reject unelaborated design"
   with Sim.Sim_error _ -> ())

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "hdl.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
        Alcotest.test_case "bad char" `Quick test_lexer_bad_char;
        Alcotest.test_case "bad sized literal" `Quick test_lexer_bad_sized;
        Alcotest.test_case "keywords case-insensitive" `Quick test_lexer_keywords_not_idents;
      ] );
    ( "hdl.parser",
      [
        Alcotest.test_case "counter" `Quick test_parse_counter;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "elsif desugars" `Quick test_parse_elsif_desugars;
        Alcotest.test_case "case choices" `Quick test_parse_case_choices;
        Alcotest.test_case "error reports line" `Quick test_parse_error_reports_line;
        Alcotest.test_case "design roundtrip" `Quick test_parse_pretty_roundtrip_designs;
        q (prop_expr_roundtrip 4);
        q (prop_expr_roundtrip 1);
      ] );
    ( "hdl.check",
      [
        Alcotest.test_case "sizes literals" `Quick test_check_sizes_literals;
        Alcotest.test_case "duplicate decl" `Quick test_check_duplicate_decl;
        Alcotest.test_case "undeclared name" `Quick test_check_undeclared;
        Alcotest.test_case "width mismatch" `Quick test_check_width_mismatch;
        Alcotest.test_case "output write-only" `Quick test_check_output_write_only;
        Alcotest.test_case "assign to input" `Quick test_check_assign_to_input;
        Alcotest.test_case "literal too big" `Quick test_check_literal_too_big;
        Alcotest.test_case "case incomplete" `Quick test_check_case_incomplete;
        Alcotest.test_case "case duplicate" `Quick test_check_case_duplicate;
        Alcotest.test_case "case full coverage" `Quick test_check_case_full_coverage_ok;
        Alcotest.test_case "more check errors" `Quick test_check_more_errors;
        Alcotest.test_case "more parse errors" `Quick test_parse_more_errors;
        Alcotest.test_case "no inputs rejected" `Quick test_check_no_inputs_rejected;
        Alcotest.test_case "unsized both sides" `Quick test_check_unsized_both_sides;
        Alcotest.test_case "combinational predicate" `Quick test_check_combinational;
      ] );
    ( "hdl.sim",
      [
        Alcotest.test_case "counter counts" `Quick test_sim_counter_counts;
        Alcotest.test_case "counter hold" `Quick test_sim_counter_hold_when_disabled;
        Alcotest.test_case "counter wraps" `Quick test_sim_counter_wraps;
        Alcotest.test_case "reg pre-cycle reads" `Quick test_sim_reg_reads_old_value;
        Alcotest.test_case "var immediate" `Quick test_sim_var_immediate;
        Alcotest.test_case "missing input" `Quick test_sim_missing_input;
        Alcotest.test_case "unknown input" `Quick test_sim_unknown_input;
        Alcotest.test_case "majority truth table" `Quick test_sim_major_truth_table;
        Alcotest.test_case "reset restores" `Quick test_sim_reset_restores;
        Alcotest.test_case "state round trip" `Quick test_sim_state_roundtrip;
        Alcotest.test_case "set_state wrong length" `Quick test_sim_set_state_wrong_length;
        Alcotest.test_case "rejects unelaborated" `Quick test_sim_rejects_unelaborated;
        q (prop_sim_matches_reference 4);
        q (prop_sim_matches_reference 1);
      ] );
  ]
