open Ast
module Bitvec = Mutsamp_util.Bitvec

type stimulus = (string * Bitvec.t) list
type observation = (string * Bitvec.t) list

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Sim_error msg)) fmt

type slot = {
  slot_width : int;
  slot_kind : kind;
  slot_index : int;
}

type t = {
  sim_design : design;
  slots : (string, slot) Hashtbl.t;
  values : int array;  (* per-cycle working values *)
  regs_cur : int array;  (* register file, indexed by slot *)
  regs_next : int array;
  regs_assigned : bool array;
  reg_slots : int array;  (* slot indices that are registers *)
  reg_resets : int array;  (* indexed like [reg_slots] *)
  input_slots : (string * int * int) array;  (* name, slot, width *)
  output_slots : (string * int * int) array;
  const_inits : (int * int) array;  (* slot, value *)
  var_slots : int array;
  body : (t -> unit) array;
}

let mask w = (1 lsl w) - 1

let lit_value what (l : literal) =
  match l.width with
  | Some _ -> l.value
  | None -> fail "unsized literal in %s: design not elaborated" what

(* --- expression compilation ------------------------------------------- *)

let rec compile_expr slots design_name e : (t -> int) * int =
  match e with
  | Const l ->
    let v = lit_value design_name l in
    let w = Option.get l.width in
    ((fun _ -> v), w)
  | Ref name ->
    let slot =
      match Hashtbl.find_opt slots name with
      | Some s -> s
      | None -> fail "%s: unknown name %s" design_name name
    in
    let i = slot.slot_index in
    ((fun t -> t.values.(i)), slot.slot_width)
  | Unop (Not, a) ->
    let f, w = compile_expr slots design_name a in
    let m = mask w in
    ((fun t -> lnot (f t) land m), w)
  | Binop (op, a, b) ->
    let fa, wa = compile_expr slots design_name a in
    let fb, _wb = compile_expr slots design_name b in
    let m = mask wa in
    let g =
      match op with
      | Add -> fun t -> (fa t + fb t) land m
      | Sub -> fun t -> (fa t - fb t) land m
      | And -> fun t -> fa t land fb t
      | Or -> fun t -> fa t lor fb t
      | Xor -> fun t -> fa t lxor fb t
      | Nand -> fun t -> lnot (fa t land fb t) land m
      | Nor -> fun t -> lnot (fa t lor fb t) land m
      | Xnor -> fun t -> lnot (fa t lxor fb t) land m
      | Eq -> fun t -> if fa t = fb t then 1 else 0
      | Neq -> fun t -> if fa t <> fb t then 1 else 0
      | Lt -> fun t -> if fa t < fb t then 1 else 0
      | Le -> fun t -> if fa t <= fb t then 1 else 0
      | Gt -> fun t -> if fa t > fb t then 1 else 0
      | Ge -> fun t -> if fa t >= fb t then 1 else 0
    in
    let w = if is_relational op then 1 else wa in
    (g, w)
  | Bit (a, i) ->
    let f, _ = compile_expr slots design_name a in
    ((fun t -> (f t lsr i) land 1), 1)
  | Slice (a, hi, lo) ->
    let f, _ = compile_expr slots design_name a in
    let m = mask (hi - lo + 1) in
    ((fun t -> (f t lsr lo) land m), hi - lo + 1)
  | Concat (a, b) ->
    let fa, wa = compile_expr slots design_name a in
    let fb, wb = compile_expr slots design_name b in
    ((fun t -> (fa t lsl wb) lor fb t), wa + wb)
  | Resize (a, w) ->
    let f, _ = compile_expr slots design_name a in
    let m = mask w in
    ((fun t -> f t land m), w)

(* --- statement compilation -------------------------------------------- *)

let rec compile_stmt slots design_name s : t -> unit =
  match s with
  | Null -> fun _ -> ()
  | Assign (name, e) ->
    let slot =
      match Hashtbl.find_opt slots name with
      | Some sl -> sl
      | None -> fail "%s: unknown assignment target %s" design_name name
    in
    let f, _ = compile_expr slots design_name e in
    let i = slot.slot_index in
    (match slot.slot_kind with
     | Var | Output -> fun t -> t.values.(i) <- f t
     | Reg _ ->
       fun t ->
         t.regs_next.(i) <- f t;
         t.regs_assigned.(i) <- true
     | Input -> fail "%s: assignment to input %s" design_name name
     | Const_decl _ -> fail "%s: assignment to constant %s" design_name name)
  | If (c, then_branch, else_branch) ->
    let fc, _ = compile_expr slots design_name c in
    let ft = compile_stmts slots design_name then_branch in
    let fe = compile_stmts slots design_name else_branch in
    fun t -> if fc t <> 0 then ft t else fe t
  | Case (scrut, arms, others) ->
    let fs, _ = compile_expr slots design_name scrut in
    let dispatch = Hashtbl.create 16 in
    List.iter
      (fun (choices, body) ->
        let fb = compile_stmts slots design_name body in
        List.iter
          (fun l -> Hashtbl.replace dispatch (lit_value design_name l) fb)
          choices)
      arms;
    let fothers =
      match others with
      | Some body -> compile_stmts slots design_name body
      | None -> fun _ -> ()
    in
    fun t ->
      (match Hashtbl.find_opt dispatch (fs t) with
       | Some fb -> fb t
       | None -> fothers t)

and compile_stmts slots design_name ss =
  let fs = Array.of_list (List.map (compile_stmt slots design_name) ss) in
  fun t -> Array.iter (fun f -> f t) fs

(* --- instance construction -------------------------------------------- *)

let create (d : design) =
  if not (Check.is_elaborated d) then
    fail "%s: design not elaborated (run Check.elaborate first)" d.name;
  (* Signal values live in native ints here; wide circuits are served
     by synthesis plus the netlist simulators instead. *)
  List.iter
    (fun (dc : decl) ->
      if dc.width > 62 then
        fail "%s: %s is %d bits wide; behavioural simulation is limited to 62-bit signals"
          d.name dc.name dc.width)
    d.decls;
  let slots = Hashtbl.create 16 in
  let decls = Array.of_list d.decls in
  Array.iteri
    (fun i (dc : decl) ->
      Hashtbl.replace slots dc.name
        { slot_width = dc.width; slot_kind = dc.kind; slot_index = i })
    decls;
  let n = Array.length decls in
  let pick f =
    Array.of_list (List.concat (List.mapi (fun i dc -> f (i, dc)) (Array.to_list decls)))
  in
  let input_slots =
    pick (fun (i, (dc : decl)) ->
        match dc.kind with
        | Input -> [ (dc.name, i, dc.width) ]
        | Output | Reg _ | Var | Const_decl _ -> [])
  in
  let output_slots =
    pick (fun (i, (dc : decl)) ->
        match dc.kind with
        | Output -> [ (dc.name, i, dc.width) ]
        | Input | Reg _ | Var | Const_decl _ -> [])
  in
  let reg_pairs =
    pick (fun (i, (dc : decl)) ->
        match dc.kind with
        | Reg reset -> [ (i, lit_value d.name reset) ]
        | Input | Output | Var | Const_decl _ -> [])
  in
  let const_inits =
    pick (fun (i, (dc : decl)) ->
        match dc.kind with
        | Const_decl v -> [ (i, lit_value d.name v) ]
        | Input | Output | Reg _ | Var -> [])
  in
  let var_slots =
    pick (fun (i, (dc : decl)) ->
        match dc.kind with
        | Var -> [ i ]
        | Input | Output | Reg _ | Const_decl _ -> [])
  in
  let t =
    {
      sim_design = d;
      slots;
      values = Array.make n 0;
      regs_cur = Array.make n 0;
      regs_next = Array.make n 0;
      regs_assigned = Array.make n false;
      reg_slots = Array.map fst reg_pairs;
      reg_resets = Array.map snd reg_pairs;
      input_slots;
      output_slots;
      const_inits;
      var_slots;
      body = Array.of_list (List.map (compile_stmt slots d.name) d.body);
    }
  in
  Array.iteri (fun k slot -> t.regs_cur.(slot) <- t.reg_resets.(k)) t.reg_slots;
  t

let reset t =
  Array.iteri (fun k slot -> t.regs_cur.(slot) <- t.reg_resets.(k)) t.reg_slots

let step t stimulus =
  (* Load the working array: inputs, current registers, constants; zero
     variables and outputs. *)
  Array.iter
    (fun (name, slot, width) ->
      match List.assoc_opt name stimulus with
      | None -> fail "%s: missing input %s" t.sim_design.name name
      | Some v ->
        if Bitvec.width v <> width then
          fail "%s: input %s expects width %d, got %d" t.sim_design.name name width
            (Bitvec.width v);
        t.values.(slot) <- Bitvec.to_int v)
    t.input_slots;
  List.iter
    (fun (name, _) ->
      match Hashtbl.find_opt t.slots name with
      | Some { slot_kind = Input; _ } -> ()
      | Some _ -> fail "%s: stimulus names non-input %s" t.sim_design.name name
      | None -> fail "%s: stimulus names unknown %s" t.sim_design.name name)
    stimulus;
  Array.iter (fun slot -> t.values.(slot) <- t.regs_cur.(slot)) t.reg_slots;
  Array.iter (fun (slot, v) -> t.values.(slot) <- v) t.const_inits;
  Array.iter (fun slot -> t.values.(slot) <- 0) t.var_slots;
  Array.iter (fun (_, slot, _) -> t.values.(slot) <- 0) t.output_slots;
  Array.iter (fun slot -> t.regs_assigned.(slot) <- false) t.reg_slots;
  (* Execute the cycle. *)
  Array.iter (fun f -> f t) t.body;
  (* Commit deferred register writes. *)
  Array.iter
    (fun slot -> if t.regs_assigned.(slot) then t.regs_cur.(slot) <- t.regs_next.(slot))
    t.reg_slots;
  Array.to_list
    (Array.map
       (fun (name, slot, width) -> (name, Bitvec.make ~width t.values.(slot)))
       t.output_slots)

let state t = Array.map (fun slot -> t.regs_cur.(slot)) t.reg_slots

let set_state t values =
  if Array.length values <> Array.length t.reg_slots then
    invalid_arg
      (Printf.sprintf "Sim.set_state: %s has %d registers, got %d values" t.sim_design.name
         (Array.length t.reg_slots) (Array.length values));
  Array.iteri (fun k slot -> t.regs_cur.(slot) <- values.(k)) t.reg_slots

let run d stimuli =
  let t = create d in
  reset t;
  List.map (step t) stimuli

let outputs_equal (a : observation) (b : observation) =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) -> String.equal na nb && Bitvec.equal va vb)
       a b
