open Mutsamp_hdl.Ast
module Check = Mutsamp_hdl.Check
module Pretty = Mutsamp_hdl.Pretty

(* Traversal with an explicit rebuild continuation: at every node we hold
   a function from a replacement node to the whole mutated design, so
   emitting a mutant is one continuation call. Site ids are assigned in
   pre-order, statements and expressions numbered from the same
   counter. *)

type ctx = {
  design : design;
  widths : (string, int) Hashtbl.t;
  readables : (int, string list) Hashtbl.t;  (* width -> readable names *)
  assignables : (int, string list) Hashtbl.t;  (* width -> writable names *)
  const_values : (int, int list) Hashtbl.t;  (* width -> declared constant values *)
  mutable next_site : int;
  mutable next_id : int;
  mutable acc : Mutant.t list;  (* reverse order *)
}

let multi_add table key v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Hashtbl.replace table key (cur @ [ v ])

let build_ctx d =
  let widths = Hashtbl.create 16 in
  let readables = Hashtbl.create 8 in
  let assignables = Hashtbl.create 8 in
  let const_values = Hashtbl.create 8 in
  List.iter
    (fun (dc : decl) ->
      Hashtbl.replace widths dc.name dc.width;
      (match dc.kind with
       | Input | Reg _ | Var | Const_decl _ -> multi_add readables dc.width dc.name
       | Output -> ());
      (match dc.kind with
       | Output | Reg _ | Var -> multi_add assignables dc.width dc.name
       | Input | Const_decl _ -> ());
      (match dc.kind with
       | Const_decl l -> multi_add const_values dc.width l.value
       | Input | Output | Reg _ | Var -> ()))
    d.decls;
  {
    design = d;
    widths;
    readables;
    assignables;
    const_values;
    next_site = 0;
    next_id = 0;
    acc = [];
  }

let fresh_site ctx =
  let s = ctx.next_site in
  ctx.next_site <- s + 1;
  s

let emit ctx op site info design =
  let m = Mutant.make ~id:ctx.next_id ~op ~site ~info design in
  ctx.next_id <- ctx.next_id + 1;
  ctx.acc <- m :: ctx.acc

let lookup_list table key = Option.value ~default:[] (Hashtbl.find_opt table key)

let logical_ops = [ And; Or; Xor; Nand; Nor; Xnor ]
let arith_ops = [ Add; Sub ]
let relational_ops = [ Eq; Neq; Lt; Le; Gt; Ge ]

let mask w = (1 lsl w) - 1

(* Candidate replacement values for a literal of value [v] in width [w]:
   off-by-one in both directions plus the extremes. *)
let cr_values ~width v =
  let m = mask width in
  let candidates = [ (v + 1) land m; (v - 1) land m; 0; m ] in
  List.sort_uniq Stdlib.compare (List.filter (fun x -> x <> v) candidates)

(* Candidate constants replacing a variable reference: extremes, one,
   and every declared constant of that width. *)
let cvr_values ctx ~width =
  let m = mask width in
  List.sort_uniq Stdlib.compare ([ 0; 1 land m; m ] @ lookup_list ctx.const_values width)

let describe_expr_change before after =
  Printf.sprintf "%s -> %s" (Pretty.expr before) (Pretty.expr after)

(* --- expression traversal --------------------------------------------- *)

let rec visit_expr ctx (e : expr) (k : expr -> design) =
  let site = fresh_site ctx in
  let emit_repl op e' = emit ctx op site (describe_expr_change e e') (k e') in
  (match e with
   | Const l ->
     let w = Option.get l.width in
     List.iter
       (fun v -> emit_repl Operator.CR (Const { value = v; width = Some w }))
       (cr_values ~width:w l.value);
     List.iter
       (fun name -> emit_repl Operator.VCR (Ref name))
       (lookup_list ctx.readables w)
   | Ref name ->
     let w = Hashtbl.find ctx.widths name in
     List.iter
       (fun other -> if other <> name then emit_repl Operator.VR (Ref other))
       (lookup_list ctx.readables w);
     List.iter
       (fun v -> emit_repl Operator.CVR (Const { value = v; width = Some w }))
       (cvr_values ctx ~width:w);
     emit_repl Operator.UOI (Unop (Not, Ref name))
   | Unop (Not, inner) -> emit_repl Operator.UOD inner
   | Binop (op, a, b) ->
     let alternatives, mutation_op =
       if is_logical op then (logical_ops, Operator.LOR)
       else if is_arith op then (arith_ops, Operator.AOR)
       else (relational_ops, Operator.ROR)
     in
     List.iter
       (fun op' -> if op' <> op then emit_repl mutation_op (Binop (op', a, b)))
       alternatives
   | Bit _ | Slice _ | Concat _ | Resize _ -> ());
  (* Recurse into children. *)
  match e with
  | Const _ | Ref _ -> ()
  | Unop (u, a) -> visit_expr ctx a (fun a' -> k (Unop (u, a')))
  | Binop (op, a, b) ->
    visit_expr ctx a (fun a' -> k (Binop (op, a', b)));
    visit_expr ctx b (fun b' -> k (Binop (op, a, b')))
  | Bit (a, i) -> visit_expr ctx a (fun a' -> k (Bit (a', i)))
  | Slice (a, hi, lo) -> visit_expr ctx a (fun a' -> k (Slice (a', hi, lo)))
  | Concat (a, b) ->
    visit_expr ctx a (fun a' -> k (Concat (a', b)));
    visit_expr ctx b (fun b' -> k (Concat (a, b')))
  | Resize (a, w) -> visit_expr ctx a (fun a' -> k (Resize (a', w)))

(* --- statement traversal ---------------------------------------------- *)

let rec visit_stmt ctx (s : stmt) (k : stmt -> design) =
  let site = fresh_site ctx in
  (match s with
   | Assign (name, e) ->
     emit ctx Operator.SDL site
       (Printf.sprintf "delete '%s := %s'" name (Pretty.expr e))
       (k Null);
     let w = Hashtbl.find ctx.widths name in
     List.iter
       (fun other ->
         if other <> name then
           emit ctx Operator.VR site
             (Printf.sprintf "target %s -> %s" name other)
             (k (Assign (other, e))))
       (lookup_list ctx.assignables w);
     visit_expr ctx e (fun e' -> k (Assign (name, e')))
   | Null -> ()
   | If (c, t, e) ->
     visit_expr ctx c (fun c' -> k (If (c', t, e)));
     visit_stmts ctx t (fun t' -> k (If (c, t', e)));
     visit_stmts ctx e (fun e' -> k (If (c, t, e')))
   | Case (scrut, arms, others) ->
     visit_expr ctx scrut (fun scrut' -> k (Case (scrut', arms, others)));
     List.iteri
       (fun i (choices, body) ->
         visit_stmts ctx body (fun body' ->
             let arms' =
               List.mapi (fun j arm -> if j = i then (choices, body') else arm) arms
             in
             k (Case (scrut, arms', others))))
       arms;
     (match others with
      | None -> ()
      | Some body ->
        visit_stmts ctx body (fun body' -> k (Case (scrut, arms, Some body')))))

and visit_stmts ctx ss (k : stmt list -> design) =
  List.iteri
    (fun i s ->
      visit_stmt ctx s (fun s' ->
          k (List.mapi (fun j s0 -> if j = i then s' else s0) ss)))
    ss

let all d =
  if not (Check.is_elaborated d) then
    invalid_arg "Generate.all: design not elaborated";
  let ctx = build_ctx d in
  visit_stmts ctx d.body (fun body' -> { d with body = body' });
  List.rev ctx.acc

let for_operator d op = List.filter (fun (m : Mutant.t) -> Operator.equal m.op op) (all d)

let count_by_operator ms =
  List.map
    (fun op ->
      (op, List.length (List.filter (fun (m : Mutant.t) -> Operator.equal m.op op) ms)))
    Operator.all
