(* Tests for lib/sat: CNF, CDCL solver (vs brute force), Tseitin
   encoding, miter equivalence. *)

module Cnf = Mutsamp_sat.Cnf
module Solver = Mutsamp_sat.Solver
module Tseitin = Mutsamp_sat.Tseitin
module Equiv = Mutsamp_sat.Equiv
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module B = Netlist.Builder
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Flow = Mutsamp_synth.Flow

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

(* The result-typed entry points, unwrapped: these tests exercise solver
   correctness, so any engine error is a straight failure. *)
let solve ?assumptions cnf =
  Mutsamp_robust.Error.ok_exn (Solver.solve ?assumptions cnf)

let equiv a b = Mutsamp_robust.Error.ok_exn (Equiv.check a b)

(* ------------------------------------------------------------------ *)
(* Cnf                                                                *)
(* ------------------------------------------------------------------ *)

let test_cnf_basics () =
  let c = Cnf.create () in
  let a = Cnf.new_var c and b = Cnf.new_var c in
  check_int "two vars" 2 (Cnf.num_vars c);
  Cnf.add_clause c [ a; -b ];
  check_int "one clause" 1 (Cnf.num_clauses c);
  Cnf.add_clause c [ a; -a ];
  check_int "tautology dropped" 1 (Cnf.num_clauses c);
  Cnf.add_clause c [ a; a; -b ];
  check_int "dup literals collapse" 2 (Cnf.num_clauses c);
  (match (Cnf.clauses c).(1) with
   | [| x; y |] -> check_bool "two literals kept" true (x <> 0 && y <> 0)
   | _ -> Alcotest.fail "expected binary clause")

let test_cnf_rejects_bad () =
  let c = Cnf.create () in
  let a = Cnf.new_var c in
  (try Cnf.add_clause c []; Alcotest.fail "empty" with Invalid_argument _ -> ());
  (try Cnf.add_clause c [ 0 ]; Alcotest.fail "zero" with Invalid_argument _ -> ());
  (try Cnf.add_clause c [ a + 5 ]; Alcotest.fail "unallocated" with Invalid_argument _ -> ())

(* Property: a kept clause is its literals sorted without duplicates,
   and exactly the clauses holding some literal with both signs are
   dropped. *)
let prop_cnf_clause_normal_form =
  QCheck.Test.make ~name:"cnf clause normal form" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range (-6) 6))
    (fun lits ->
      QCheck.assume (lits <> [] && not (List.mem 0 lits));
      let c = Cnf.create () in
      for _ = 1 to 6 do ignore (Cnf.new_var c) done;
      Cnf.add_clause c lits;
      let sorted = List.sort_uniq compare lits in
      if List.exists (fun l -> List.mem (-l) sorted) sorted then Cnf.num_clauses c = 0
      else Cnf.clauses c = [| Array.of_list sorted |])

(* ------------------------------------------------------------------ *)
(* Solver                                                             *)
(* ------------------------------------------------------------------ *)

let test_solver_trivial_sat () =
  let c = Cnf.create () in
  let a = Cnf.new_var c in
  Cnf.add_clause c [ a ];
  (match solve c with
   | Solver.Sat m -> check_bool "a true" true m.(a)
   | Solver.Unsat -> Alcotest.fail "should be sat")

let test_solver_trivial_unsat () =
  let c = Cnf.create () in
  let a = Cnf.new_var c in
  Cnf.add_clause c [ a ];
  Cnf.add_clause c [ -a ];
  (match solve c with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "should be unsat")

let test_solver_implication_chain () =
  (* a, a->b, b->c, ..., forces all true. *)
  let c = Cnf.create () in
  let vars = Array.init 20 (fun _ -> Cnf.new_var c) in
  Cnf.add_clause c [ vars.(0) ];
  for i = 0 to 18 do
    Cnf.add_clause c [ -vars.(i); vars.(i + 1) ]
  done;
  (match solve c with
   | Solver.Sat m -> Array.iter (fun v -> check_bool "chained true" true m.(v)) vars
   | Solver.Unsat -> Alcotest.fail "should be sat")

let test_solver_pigeonhole_unsat () =
  (* PHP(4,3): 4 pigeons, 3 holes — classically UNSAT and needs real
     search. Variable p(i,h) = pigeon i in hole h. *)
  let c = Cnf.create () in
  let p = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Cnf.new_var c)) in
  for i = 0 to 3 do
    Cnf.add_clause c [ p.(i).(0); p.(i).(1); p.(i).(2) ]
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        Cnf.add_clause c [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  (match solve c with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "pigeonhole should be unsat")

let test_solver_assumptions () =
  let c = Cnf.create () in
  let a = Cnf.new_var c and b = Cnf.new_var c in
  Cnf.add_clause c [ a; b ];
  (match solve ~assumptions:[ -a ] c with
   | Solver.Sat m ->
     check_bool "a false" false m.(a);
     check_bool "b true" true m.(b)
   | Solver.Unsat -> Alcotest.fail "sat under assumption");
  (match solve ~assumptions:[ -a; -b ] c with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "unsat under assumptions")

(* Brute-force reference decision procedure. *)
let brute_force cnf =
  let n = Cnf.num_vars cnf in
  let cls = Cnf.clauses cnf in
  let rec try_assign code =
    if code >= 1 lsl n then None
    else begin
      let model = Array.make (n + 1) false in
      for v = 1 to n do
        model.(v) <- (code lsr (v - 1)) land 1 = 1
      done;
      let ok =
        Array.for_all
          (fun c -> Array.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) c)
          cls
      in
      if ok then Some model else try_assign (code + 1)
    end
  in
  try_assign 0

let random_cnf_gen =
  QCheck.Gen.(
    int_range 3 8 >>= fun nvars ->
    int_range 1 25 >>= fun nclauses ->
    list_size (return nclauses)
      (list_size (int_range 1 3)
         (pair (int_range 1 nvars) bool >|= fun (v, sign) -> if sign then v else -v))
    >|= fun cls -> (nvars, cls))

let prop_solver_matches_bruteforce =
  let arb =
    QCheck.make
      ~print:(fun (n, cls) ->
        Printf.sprintf "%d vars: %s" n
          (String.concat " ; "
             (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
      random_cnf_gen
  in
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:400 arb
    (fun (nvars, cls) ->
      let cnf = Cnf.create () in
      for _ = 1 to nvars do
        ignore (Cnf.new_var cnf)
      done;
      List.iter (fun c -> Cnf.add_clause cnf c) cls;
      match solve cnf, brute_force cnf with
      | Solver.Sat model, Some _ -> Solver.is_satisfying cnf model
      | Solver.Unsat, None -> true
      | Solver.Sat _, None | Solver.Unsat, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Tseitin                                                            *)
(* ------------------------------------------------------------------ *)

let full_adder_netlist () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

(* Check the encoding agrees with simulation on every input vector. *)
let test_tseitin_full_adder_consistent () =
  let nl = full_adder_netlist () in
  let sim = Bitsim.create nl in
  for code = 0 to 7 do
    let cnf = Cnf.create () in
    let enc = Tseitin.encode ~into:cnf nl in
    let assumptions =
      List.mapi
        (fun k net ->
          let v = enc.Tseitin.var_of_net.(net) in
          if (code lsr k) land 1 = 1 then v else -v)
        (Array.to_list nl.Netlist.input_nets)
    in
    match solve ~assumptions cnf with
    | Solver.Unsat -> Alcotest.fail "encoding inconsistent"
    | Solver.Sat model ->
      let inputs =
        Array.init 3 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0)
      in
      let outs = Bitsim.step sim inputs in
      let s_net = Ports.output nl "s" in
      let cout_net = Ports.output nl "cout" in
      check_bool "s agrees" true
        (model.(enc.Tseitin.var_of_net.(s_net)) = (outs.(0) land 1 = 1));
      check_bool "cout agrees" true
        (model.(enc.Tseitin.var_of_net.(cout_net)) = (outs.(1) land 1 = 1))
  done

let test_tseitin_xor_or_helpers () =
  let cnf = Cnf.create () in
  let a = Cnf.new_var cnf and b = Cnf.new_var cnf in
  let x = Tseitin.xor_out cnf a b in
  let o = Tseitin.or_list cnf [ a; b ] in
  (* force a=1, b=0: x must be 1, o must be 1 *)
  (match solve ~assumptions:[ a; -b; -x ] cnf with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "xor must be 1");
  (match solve ~assumptions:[ a; -b; -o ] cnf with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "or must be 1");
  (match solve ~assumptions:[ -a; -b; o ] cnf with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "or must be 0")

(* ------------------------------------------------------------------ *)
(* Equiv                                                              *)
(* ------------------------------------------------------------------ *)

let alu_src =
  {|design alu is
  input a : unsigned(4);
  input b : unsigned(4);
  output y : unsigned(4);
  output c : bit;
begin
  y := a + b;
  c := a < b;
end design;|}

let test_equiv_self () =
  let nl = Flow.synthesize (parse alu_src) in
  (match equiv nl nl with
   | Equiv.Equivalent -> ()
   | Equiv.Counterexample _ -> Alcotest.fail "self-equivalence")

let test_equiv_detects_difference () =
  let nl1 = Flow.synthesize (parse alu_src) in
  let nl2 =
    Flow.synthesize
      (parse
         {|design alu is
  input a : unsigned(4);
  input b : unsigned(4);
  output y : unsigned(4);
  output c : bit;
begin
  y := a + b;
  c := a <= b;
end design;|})
  in
  (match equiv nl1 nl2 with
   | Equiv.Counterexample cex ->
     check_bool "counterexample replays" true (Equiv.counterexample_is_real nl1 nl2 cex)
   | Equiv.Equivalent -> Alcotest.fail "should differ")

let test_equiv_structurally_different_but_equal () =
  (* xor via xor gate vs xor via and/or/not. *)
  let direct =
    let b = B.create "x1" in
    let p = B.input b "p" and q = B.input b "q" in
    B.output b "y" (B.xor_ b p q);
    B.finalize b
  in
  let expanded =
    let b = B.create "x2" in
    let p = B.input b "p" and q = B.input b "q" in
    let y = B.or_ b (B.and_ b p (B.not_ b q)) (B.and_ b (B.not_ b p) q) in
    B.output b "y" y;
    B.finalize b
  in
  (match equiv direct expanded with
   | Equiv.Equivalent -> ()
   | Equiv.Counterexample _ -> Alcotest.fail "xor forms should match")

let test_equiv_rejects_sequential () =
  let b = B.create "seq" in
  let x = B.input b "x" in
  let q = B.dff b ~init:false in
  B.connect_dff b q ~d:x;
  B.output b "y" q;
  let nl = B.finalize b in
  (try
     ignore (equiv nl nl);
     Alcotest.fail "should reject"
   with Equiv.Equiv_error _ -> ())

let test_equiv_rejects_interface_mismatch () =
  let nl1 = Flow.synthesize (parse alu_src) in
  let nl2 = full_adder_netlist () in
  (try
     ignore (equiv nl1 nl2);
     Alcotest.fail "should reject"
   with Equiv.Equiv_error _ -> ())

(* Property: the miter agrees with exhaustive comparison for random
   small gate mutations of the full adder. *)
let prop_equiv_matches_exhaustive =
  let gen = QCheck.Gen.(pair (int_range 0 100) (int_range 0 5)) in
  QCheck.Test.make ~name:"miter agrees with exhaustive check" ~count:50
    (QCheck.make gen) (fun (seed, _) ->
      (* Mutate one random gate kind of the full adder. *)
      let nl = full_adder_netlist () in
      let prng = Mutsamp_util.Prng.create seed in
      let candidates =
        Array.to_list
          (Array.mapi (fun i (g : Mutsamp_netlist.Gate.t) -> (i, g)) nl.Netlist.gates)
        |> List.filter (fun (_, (g : Mutsamp_netlist.Gate.t)) ->
               match g.kind with
               | Mutsamp_netlist.Gate.And | Mutsamp_netlist.Gate.Or
               | Mutsamp_netlist.Gate.Xor -> true
               | _ -> false)
      in
      let idx, g = Mutsamp_util.Prng.pick_list prng candidates in
      let new_kind =
        Mutsamp_util.Prng.pick_list prng
          (List.filter
             (fun k -> k <> g.Mutsamp_netlist.Gate.kind)
             [ Mutsamp_netlist.Gate.And; Mutsamp_netlist.Gate.Or;
               Mutsamp_netlist.Gate.Nand; Mutsamp_netlist.Gate.Xor ])
      in
      let gates = Array.copy nl.Netlist.gates in
      gates.(idx) <- { g with Mutsamp_netlist.Gate.kind = new_kind };
      let mutated = { nl with Netlist.gates } in
      (* Exhaustive comparison. *)
      let sim_a = Bitsim.create nl and sim_b = Bitsim.create mutated in
      let equal_exhaustive =
        List.for_all
          (fun code ->
            let ins = Array.init 3 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0) in
            Bitsim.step sim_a ins = Bitsim.step sim_b ins)
          (List.init 8 (fun i -> i))
      in
      match equiv nl mutated with
      | Equiv.Equivalent -> equal_exhaustive
      | Equiv.Counterexample cex ->
        (not equal_exhaustive) && Equiv.counterexample_is_real nl mutated cex)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "sat.cnf",
      [
        Alcotest.test_case "basics" `Quick test_cnf_basics;
        Alcotest.test_case "rejects bad clauses" `Quick test_cnf_rejects_bad;
        q prop_cnf_clause_normal_form;
      ] );
    ( "sat.solver",
      [
        Alcotest.test_case "trivial sat" `Quick test_solver_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_solver_trivial_unsat;
        Alcotest.test_case "implication chain" `Quick test_solver_implication_chain;
        Alcotest.test_case "pigeonhole unsat" `Quick test_solver_pigeonhole_unsat;
        Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
        q prop_solver_matches_bruteforce;
      ] );
    ( "sat.tseitin",
      [
        Alcotest.test_case "full adder consistent" `Quick test_tseitin_full_adder_consistent;
        Alcotest.test_case "xor/or helpers" `Quick test_tseitin_xor_or_helpers;
      ] );
    ( "sat.equiv",
      [
        Alcotest.test_case "self" `Quick test_equiv_self;
        Alcotest.test_case "detects difference" `Quick test_equiv_detects_difference;
        Alcotest.test_case "structural variants equal" `Quick test_equiv_structurally_different_but_equal;
        Alcotest.test_case "rejects sequential" `Quick test_equiv_rejects_sequential;
        Alcotest.test_case "rejects interface mismatch" `Quick test_equiv_rejects_interface_mismatch;
        q prop_equiv_matches_exhaustive;
      ] );
  ]
