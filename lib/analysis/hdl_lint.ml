open Mutsamp_hdl.Ast
module Pretty = Mutsamp_hdl.Pretty

(* Signal usage: reads anywhere in an expression, writes as assignment
   targets, regardless of reachability (reachability is HDL007's job). *)

let rec expr_reads acc = function
  | Const _ -> ()
  | Ref n -> Hashtbl.replace acc n ()
  | Unop (_, e) | Bit (e, _) | Slice (e, _, _) | Resize (e, _) -> expr_reads acc e
  | Binop (_, a, b) | Concat (a, b) ->
    expr_reads acc a;
    expr_reads acc b

let rec stmt_uses reads writes = function
  | Null -> ()
  | Assign (x, e) ->
    Hashtbl.replace writes x ();
    expr_reads reads e
  | If (c, t, f) ->
    expr_reads reads c;
    List.iter (stmt_uses reads writes) t;
    List.iter (stmt_uses reads writes) f
  | Case (scrut, arms, others) ->
    expr_reads reads scrut;
    List.iter (fun (_, body) -> List.iter (stmt_uses reads writes) body) arms;
    Option.iter (List.iter (stmt_uses reads writes)) others

let run ~circuit (d : design) =
  let diags = ref [] in
  let emit rule loc fmt =
    Printf.ksprintf
      (fun message -> diags := Diag.make ~rule ~circuit ~loc ~message :: !diags)
      fmt
  in
  let reads = Hashtbl.create 32 and writes = Hashtbl.create 32 in
  List.iter (stmt_uses reads writes) d.body;
  let read n = Hashtbl.mem reads n and written n = Hashtbl.mem writes n in
  List.iter
    (fun (dc : decl) ->
      match dc.kind with
      | Input ->
        if not (read dc.name) then
          emit Rule.hdl_unread_input dc.name "input '%s' is never read" dc.name
      | Output ->
        if not (written dc.name) then
          emit Rule.hdl_unassigned_output dc.name
            "output '%s' is never assigned and reads as 0" dc.name
      | Reg _ | Var ->
        let what = match dc.kind with Reg _ -> "register" | _ -> "variable" in
        if not (written dc.name) then
          emit Rule.hdl_never_written dc.name "%s '%s' is never written" what dc.name
        else if not (read dc.name) then
          emit Rule.hdl_never_read dc.name "%s '%s' is written but never read" what
            dc.name
      | Const_decl _ -> ())
    d.decls;
  let kinds = Hashtbl.create 16 in
  List.iter (fun (dc : decl) -> Hashtbl.replace kinds dc.name dc.kind) d.decls;
  (* The normalizer folds with the simulator's exact semantics, so an
     expression it reduces to a literal really is constant. *)
  let as_const e =
    match Exprnorm.normalize_expr d e with Const l -> Some l.value | _ -> None
  in
  let dead_assigns label body =
    List.iter
      (fun s ->
        match s with
        | Assign (x, _) ->
          emit Rule.hdl_dead_assign x "assignment to '%s' is %s" x label
        | _ -> ())
      body
  in
  (* Statements are numbered in pre-order so the [if@N]/[case@N] waiver
     locs are stable for a given design. *)
  let counter = ref (-1) in
  let next () = incr counter; !counter in
  let rec walk_list ss =
    (* Adjacent overwrite of the same target: dead for a register
       always (writes are deferred to the cycle boundary), for a
       variable or output when the second RHS does not read it. *)
    let rec pairs = function
      | Assign (x, _) :: (Assign (y, e2) :: _ as rest) when x = y ->
        let dead =
          match Hashtbl.find_opt kinds x with
          | Some (Reg _) -> true
          | Some (Var | Output) -> not (Exprnorm.expr_reads_name x e2)
          | _ -> false
        in
        if dead then
          emit Rule.hdl_dead_assign x "assignment to '%s' is immediately overwritten"
            x;
        pairs rest
      | _ :: rest -> pairs rest
      | [] -> ()
    in
    pairs ss;
    List.iter walk ss
  and walk s =
    let n = next () in
    match s with
    | Null -> ()
    | Assign (x, Ref y) when x = y ->
      emit Rule.hdl_self_assign x "'%s := %s' has no effect" x x
    | Assign _ -> ()
    | If (c, t, f) ->
      (match as_const c with
       | Some v ->
         emit Rule.hdl_constant_branch
           (Printf.sprintf "if@%d" n)
           "condition '%s' is always %s" (Pretty.expr c)
           (if v <> 0 then "true" else "false");
         dead_assigns "unreachable" (if v <> 0 then f else t)
       | None -> ());
      walk_list t;
      walk_list f
    | Case (scrut, arms, others) ->
      (match as_const scrut with
       | Some v ->
         emit Rule.hdl_constant_branch
           (Printf.sprintf "case@%d" n)
           "case scrutinee '%s' is always %d" (Pretty.expr scrut) v;
         List.iter
           (fun (choices, body) ->
             if not (List.exists (fun (l : literal) -> l.value = v) choices) then
               dead_assigns "unreachable" body)
           arms
       | None -> ());
      List.iter (fun (_, body) -> walk_list body) arms;
      Option.iter walk_list others
  in
  walk_list d.body;
  !diags
