open Ast

exception Check_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check_error msg)) fmt

type env = { design_name : string; table : (string, decl) Hashtbl.t }

let build_env (d : design) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (dc : decl) ->
      if Hashtbl.mem table dc.name then
        fail "%s: duplicate declaration of %s" d.name dc.name;
      if dc.width < 1 then
        fail "%s: %s has width %d, not positive" d.name dc.name dc.width;
      Hashtbl.add table dc.name dc)
    d.decls;
  { design_name = d.name; table }

let lookup env name =
  match Hashtbl.find_opt env.table name with
  | Some dc -> dc
  | None -> fail "%s: undeclared name %s" env.design_name name

let fits ~width value = value >= 0 && (width >= 63 || value < 1 lsl width)

let sized env ~width (l : literal) =
  (match l.width with
   | Some w when w <> width ->
     fail "%s: literal %d sized %d bits where %d expected" env.design_name l.value w width
   | Some _ | None -> ());
  if not (fits ~width l.value) then
    fail "%s: literal %d does not fit in %d bits" env.design_name l.value width;
  { value = l.value; width = Some width }

(* Bottom-up width, [None] when the expression is an unsized literal
   (or an arithmetic/logic combination of unsized literals). *)
let rec width_of env = function
  | Const l -> l.width
  | Ref name ->
    let dc = lookup env name in
    Some dc.width
  | Unop (Not, e) -> width_of env e
  | Binop (op, a, b) ->
    if is_relational op then Some 1
    else (match width_of env a with Some w -> Some w | None -> width_of env b)
  | Bit (_, _) -> Some 1
  | Slice (_, hi, lo) -> Some (hi - lo + 1)
  | Concat (a, b) ->
    (match width_of env a, width_of env b with
     | Some wa, Some wb -> Some (wa + wb)
     | None, _ | _, None -> None)
  | Resize (_, w) -> Some w

let readable env name =
  let dc = lookup env name in
  match dc.kind with
  | Input | Reg _ | Var | Const_decl _ -> dc
  | Output -> fail "%s: output %s is write-only" env.design_name name

(* Elaborate [e] so its width equals [expected] when given; returns the
   sized expression and its width. *)
let rec elab_expr env ~expected e =
  match e with
  | Const l ->
    let width =
      match l.width, expected with
      | Some w, _ -> w
      | None, Some w -> w
      | None, None ->
        fail "%s: cannot infer width of literal %d" env.design_name l.value
    in
    let l = sized env ~width { l with width = l.width } in
    check_expected env expected width;
    (Const l, width)
  | Ref name ->
    let dc = readable env name in
    check_expected env expected dc.width;
    (Ref name, dc.width)
  | Unop (Not, a) ->
    let a, w = elab_expr env ~expected a in
    (Unop (Not, a), w)
  | Binop (op, a, b) when is_relational op ->
    let w =
      match width_of env a with
      | Some w -> w
      | None ->
        (match width_of env b with
         | Some w -> w
         | None -> fail "%s: comparison between two unsized literals" env.design_name)
    in
    let a, _ = elab_expr env ~expected:(Some w) a in
    let b, _ = elab_expr env ~expected:(Some w) b in
    check_expected env expected 1;
    (Binop (op, a, b), 1)
  | Binop (op, a, b) ->
    let w =
      match expected with
      | Some w -> w
      | None ->
        (match width_of env a with
         | Some w -> w
         | None ->
           (match width_of env b with
            | Some w -> w
            | None ->
              fail "%s: cannot infer width of %s expression" env.design_name
                (binop_name op)))
    in
    let a, _ = elab_expr env ~expected:(Some w) a in
    let b, _ = elab_expr env ~expected:(Some w) b in
    (Binop (op, a, b), w)
  | Bit (a, i) ->
    let a, wa = elab_operand env a "bit select" in
    if i < 0 || i >= wa then
      fail "%s: bit index %d out of range for width %d" env.design_name i wa;
    check_expected env expected 1;
    (Bit (a, i), 1)
  | Slice (a, hi, lo) ->
    let a, wa = elab_operand env a "slice" in
    if lo < 0 || hi < lo || hi >= wa then
      fail "%s: slice [%d:%d] out of range for width %d" env.design_name hi lo wa;
    let w = hi - lo + 1 in
    check_expected env expected w;
    (Slice (a, hi, lo), w)
  | Concat (a, b) ->
    let a, wa = elab_operand env a "concat" in
    let b, wb = elab_operand env b "concat" in
    let w = wa + wb in
    check_expected env expected w;
    (Concat (a, b), w)
  | Resize (a, w) ->
    if w < 1 then fail "%s: resize to width %d out of range" env.design_name w;
    let a, _ = elab_operand env a "resize" in
    check_expected env expected w;
    (Resize (a, w), w)

(* Operand whose width must be self-evident (bit select, slice, concat,
   resize): an unsized literal is rejected. *)
and elab_operand env e what =
  match width_of env e with
  | Some w ->
    let e, w = elab_expr env ~expected:(Some w) e in
    (e, w)
  | None -> fail "%s: unsized literal operand of %s" env.design_name what

and check_expected env expected actual =
  match expected with
  | Some w when w <> actual ->
    fail "%s: expected width %d, got %d" env.design_name w actual
  | Some _ | None -> ()

let assignable env name =
  let dc = lookup env name in
  match dc.kind with
  | Output | Reg _ | Var -> dc
  | Input -> fail "%s: cannot assign to input %s" env.design_name name
  | Const_decl _ -> fail "%s: cannot assign to constant %s" env.design_name name

let rec elab_stmt env s =
  match s with
  | Null -> Null
  | Assign (name, e) ->
    let dc = assignable env name in
    let e, _ = elab_expr env ~expected:(Some dc.width) e in
    Assign (name, e)
  | If (c, t, e) ->
    let c, _ = elab_expr env ~expected:(Some 1) c in
    If (c, elab_stmts env t, elab_stmts env e)
  | Case (scrut, arms, others) ->
    let w =
      match width_of env scrut with
      | Some w -> w
      | None -> fail "%s: case scrutinee has no inferable width" env.design_name
    in
    let scrut, _ = elab_expr env ~expected:(Some w) scrut in
    let seen = Hashtbl.create 16 in
    let arm (choices, body) =
      let choice l =
        let l = sized env ~width:w l in
        if Hashtbl.mem seen l.value then
          fail "%s: duplicate case choice %d" env.design_name l.value;
        Hashtbl.add seen l.value ();
        l
      in
      (List.map choice choices, elab_stmts env body)
    in
    let arms = List.map arm arms in
    let others = Option.map (elab_stmts env) others in
    (match others with
     | Some _ -> ()
     | None ->
       let covered = Hashtbl.length seen in
       let needed = if w >= 62 then max_int else 1 lsl w in
       if covered < needed then
         fail "%s: case on %d-bit value covers %d of %d choices and has no others arm"
           env.design_name w covered needed);
    Case (scrut, arms, others)

and elab_stmts env ss = List.map (elab_stmt env) ss

let elab_decl env (dc : decl) =
  match dc.kind with
  | Input | Output | Var -> dc
  | Reg reset -> { dc with kind = Reg (sized env ~width:dc.width reset) }
  | Const_decl v -> { dc with kind = Const_decl (sized env ~width:dc.width v) }

let elaborate (d : design) =
  let env = build_env d in
  if inputs d = [] then fail "%s: design has no inputs" d.name;
  if outputs d = [] then fail "%s: design has no outputs" d.name;
  {
    d with
    decls = List.map (elab_decl env) d.decls;
    body = elab_stmts env d.body;
  }

let rec expr_sized = function
  | Const { width = None; _ } -> false
  | Const { width = Some _; _ } | Ref _ -> true
  | Unop (_, e) | Bit (e, _) | Slice (e, _, _) | Resize (e, _) -> expr_sized e
  | Binop (_, a, b) | Concat (a, b) -> expr_sized a && expr_sized b

let rec stmt_sized = function
  | Null -> true
  | Assign (_, e) -> expr_sized e
  | If (c, t, e) -> expr_sized c && List.for_all stmt_sized t && List.for_all stmt_sized e
  | Case (scrut, arms, others) ->
    expr_sized scrut
    && List.for_all
         (fun (cs, body) ->
           List.for_all (fun (l : literal) -> l.width <> None) cs
           && List.for_all stmt_sized body)
         arms
    && (match others with None -> true | Some body -> List.for_all stmt_sized body)

let is_elaborated (d : design) =
  List.for_all
    (fun (dc : decl) ->
      match dc.kind with
      | Input | Output | Var -> true
      | Reg l | Const_decl l -> l.width <> None)
    d.decls
  && List.for_all stmt_sized d.body

let is_combinational (d : design) = regs d = []
