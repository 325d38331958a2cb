open Ast

let literal (l : literal) =
  match l.width with
  | None -> string_of_int l.value
  | Some w -> Mutsamp_util.Bitvec.to_string (Mutsamp_util.Bitvec.make ~width:w l.value)

(* Precedence levels mirror the parser grammar, loosest to tightest:
   logical (1) < relational (2) < additive (3) < concat (4) < not (5)
   < postfix (6) < atoms (10). Binary levels are left-associative except
   the relational one, which is non-associative. *)
let prec_of_binop op =
  if is_logical op then 1 else if is_relational op then 2 else 3

let rec expr_prec p e =
  let s, my_prec =
    match e with
    | Const l -> (literal l, 10)
    | Ref name -> (name, 10)
    | Unop (Not, a) -> ("not " ^ expr_prec 5 a, 5)
    | Binop (op, a, b) ->
      let prec = prec_of_binop op in
      let left_prec = if is_relational op then prec + 1 else prec in
      let left = expr_prec left_prec a and right = expr_prec (prec + 1) b in
      (Printf.sprintf "%s %s %s" left (binop_name op) right, prec)
    | Bit (a, i) -> (Printf.sprintf "%s[%d]" (expr_prec 6 a) i, 6)
    | Slice (a, hi, lo) -> (Printf.sprintf "%s[%d:%d]" (expr_prec 6 a) hi lo, 6)
    | Concat (a, b) -> (Printf.sprintf "%s & %s" (expr_prec 4 a) (expr_prec 5 b), 4)
    | Resize (a, w) -> (Printf.sprintf "resize(%s, %d)" (expr_prec 0 a) w, 10)
  in
  if my_prec < p then "(" ^ s ^ ")" else s

let expr e = expr_prec 0 e

let spaces n = String.make n ' '

let rec stmt ?(indent = 0) s =
  let ind = spaces indent in
  match s with
  | Null -> ind ^ "null;"
  | Assign (name, e) -> Printf.sprintf "%s%s := %s;" ind name (expr e)
  | If (c, t, e) ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "%sif %s then\n" ind (expr c));
    Buffer.add_string buf (stmts ~indent:(indent + 2) t);
    (match e with
     | [] -> ()
     | _ ->
       Buffer.add_string buf (Printf.sprintf "%selse\n" ind);
       Buffer.add_string buf (stmts ~indent:(indent + 2) e));
    Buffer.add_string buf (Printf.sprintf "%send if;" ind);
    Buffer.contents buf
  | Case (scrut, arms, others) ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "%scase %s is\n" ind (expr scrut));
    let arm (choices, body) =
      let cs = String.concat " | " (List.map literal choices) in
      Buffer.add_string buf (Printf.sprintf "%swhen %s =>\n" (spaces (indent + 2)) cs);
      Buffer.add_string buf (stmts ~indent:(indent + 4) body)
    in
    List.iter arm arms;
    (match others with
     | None -> ()
     | Some body ->
       Buffer.add_string buf (Printf.sprintf "%swhen others =>\n" (spaces (indent + 2)));
       Buffer.add_string buf (stmts ~indent:(indent + 4) body));
    Buffer.add_string buf (Printf.sprintf "%send case;" ind);
    Buffer.contents buf

and stmts ~indent ss =
  String.concat "" (List.map (fun s -> stmt ~indent s ^ "\n") ss)

let decl (d : decl) =
  let ty = if d.width = 1 then "bit" else Printf.sprintf "unsigned(%d)" d.width in
  match d.kind with
  | Input -> Printf.sprintf "  input %s : %s;" d.name ty
  | Output -> Printf.sprintf "  output %s : %s;" d.name ty
  | Reg reset -> Printf.sprintf "  reg %s : %s := %s;" d.name ty (literal reset)
  | Var -> Printf.sprintf "  var %s : %s;" d.name ty
  | Const_decl v -> Printf.sprintf "  const %s : %s := %s;" d.name ty (literal v)

let design (d : design) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "design %s is\n" d.name);
  List.iter (fun dc -> Buffer.add_string buf (decl dc ^ "\n")) d.decls;
  Buffer.add_string buf "begin\n";
  Buffer.add_string buf (stmts ~indent:2 d.body);
  Buffer.add_string buf "end design;\n";
  Buffer.contents buf
