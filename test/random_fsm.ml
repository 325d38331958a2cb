(* Random whole designs: two inputs, a register, a variable and a
   constant, with assignments, ifs and cases nested two deep. The
   generator behind synth.equivalence "random FSM designs"; every
   design it draws is elaborated. *)

module Prng = Mutsamp_util.Prng
module Ast = Mutsamp_hdl.Ast
module Check = Mutsamp_hdl.Check

let design prng =
  let decls =
    [
      { Ast.name = "a"; width = 3; kind = Ast.Input };
      { Ast.name = "c"; width = 1; kind = Ast.Input };
      { Ast.name = "y"; width = 3; kind = Ast.Output };
      { Ast.name = "z"; width = 1; kind = Ast.Output };
      { Ast.name = "r"; width = 3; kind = Ast.Reg (Ast.lit ~width:3 (Prng.int prng 8)) };
      { Ast.name = "v"; width = 3; kind = Ast.Var };
      { Ast.name = "k"; width = 3; kind = Ast.Const_decl (Ast.lit ~width:3 5) };
    ]
  in
  let rand_name w =
    if w = 3 then Prng.pick prng [| "a"; "r"; "v"; "k" |] else "c"
  in
  let rec gen_e depth w =
    if depth = 0 then
      if Prng.bool prng then Ast.Ref (rand_name w)
      else Ast.const ~width:w (Prng.int prng (1 lsl w))
    else
      match Prng.int prng 5 with
      | 0 -> Ast.Unop (Ast.Not, gen_e (depth - 1) w)
      | 1 ->
        let ops = [| Ast.Add; Ast.Sub; Ast.And; Ast.Or; Ast.Xor |] in
        Ast.Binop (Prng.pick prng ops, gen_e (depth - 1) w, gen_e (depth - 1) w)
      | 2 when w = 1 ->
        let ops = [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Ge |] in
        Ast.Binop (Prng.pick prng ops, gen_e (depth - 1) 3, gen_e (depth - 1) 3)
      | _ -> gen_e 0 w
  in
  let targets = [| ("y", 3); ("z", 1); ("r", 3); ("v", 3) |] in
  let rec gen_stmt depth =
    match if depth = 0 then 0 else Prng.int prng 4 with
    | 0 | 1 ->
      let name, w = Prng.pick prng targets in
      Ast.Assign (name, gen_e 2 w)
    | 2 ->
      Ast.If
        ( gen_e 2 1,
          List.init (1 + Prng.int prng 2) (fun _ -> gen_stmt (depth - 1)),
          if Prng.bool prng then [ gen_stmt (depth - 1) ] else [] )
    | _ ->
      let n_arms = 1 + Prng.int prng 3 in
      let choices = Prng.sample_without_replacement prng n_arms [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
      Ast.Case
        ( gen_e 1 3,
          List.map
            (fun c -> ([ Ast.lit ~width:3 c ], [ gen_stmt (depth - 1) ]))
            (Array.to_list choices),
          Some [ gen_stmt (depth - 1) ] )
  in
  let body = List.init (2 + Prng.int prng 3) (fun _ -> gen_stmt 2) in
  Check.elaborate { Ast.name = "fuzz"; decls; body }
