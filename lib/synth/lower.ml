open Mutsamp_hdl.Ast
module Check = Mutsamp_hdl.Check
module B = Mutsamp_netlist.Netlist.Builder
module W = Wordlib

exception Synth_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Synth_error msg)) fmt

(* Built byte by byte: this runs for every port bit of every
   synthesis, and [Printf.sprintf] or [string_of_int] cost several
   times the copy. *)
let bit_name port width i =
  if width = 1 then port
  else if i < 0 then port ^ "[" ^ string_of_int i ^ "]"
  else begin
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let len = String.length port and nd = digits i in
    let s = Bytes.create (len + nd + 2) in
    Bytes.blit_string port 0 s 0 len;
    Bytes.set s len '[';
    let rec put n k =
      Bytes.set s k (Char.unsafe_chr (Char.code '0' + (n mod 10)));
      if n >= 10 then put (n / 10) (k - 1)
    in
    put i (len + nd);
    Bytes.set s (len + nd + 1) ']';
    Bytes.unsafe_to_string s
  end

(* The symbolic environment maps every writable name (vars, outputs and
   register next-values) to a word. Reads of registers bypass it and
   use the flip-flop outputs. An environment has one owner: branches
   get their own copy, so an assignment updates it in place. Merges
   create gates in iteration order over these tables, so each is
   created with [~random:false] (copies keep it): net numbering must
   not depend on the hash seed ([OCAMLRUNPARAM=R]). *)
type env = (string, W.word) Hashtbl.t

type ctx = {
  b : B.t;
  design : design;
  fixed : (string, int * W.word) Hashtbl.t;
      (* register (flip-flop outputs), input and constant words, each
         with the rank of its kind: a register shadows an input of the
         same name, an input a constant *)
}

let env_copy (e : env) : env = Hashtbl.copy e

let lit_value (l : literal) =
  match l.width with
  | Some _ -> l.value
  | None -> fail "unsized literal: design not elaborated"

let rec lower_expr ctx (env : env) (e : expr) : W.word =
  match e with
  | Const l -> W.const_word ctx.b ~width:(Option.get l.width) l.value
  | Ref name ->
    (match Hashtbl.find_opt ctx.fixed name with
     | Some (_, w) -> w
     | None ->
       (match Hashtbl.find_opt env name with
        | Some w -> w
        | None -> fail "%s: unknown name %s" ctx.design.name name))
  | Unop (Not, a) -> W.lognot ctx.b (lower_expr ctx env a)
  | Binop (op, a, bb) ->
    let x = lower_expr ctx env a and y = lower_expr ctx env bb in
    (match op with
     | Add -> W.add ctx.b x y
     | Sub -> W.sub ctx.b x y
     | And -> W.logand ctx.b x y
     | Or -> W.logor ctx.b x y
     | Xor -> W.logxor ctx.b x y
     | Nand -> W.lognand ctx.b x y
     | Nor -> W.lognor ctx.b x y
     | Xnor -> W.logxnor ctx.b x y
     | Eq -> [| W.eq ctx.b x y |]
     | Neq -> [| W.neq ctx.b x y |]
     | Lt -> [| W.lt ctx.b x y |]
     | Le -> [| W.le ctx.b x y |]
     | Gt -> [| W.gt ctx.b x y |]
     | Ge -> [| W.ge ctx.b x y |])
  | Bit (a, i) -> W.bit (lower_expr ctx env a) i
  | Slice (a, hi, lo) -> W.slice (lower_expr ctx env a) ~hi ~lo
  | Concat _ ->
    (* A chain [Concat (hn, ... Concat (h1, h0))] as one copy rather
       than one per link; the parts are lowered low first, h0 to hn, in
       the order the nested calls would. *)
    let rec highs e acc = match e with Concat (h, l) -> highs l (h :: acc) | _ -> (e, acc) in
    let low, highs = highs e [] in
    let low = lower_expr ctx env low in
    Array.concat (low :: List.map (lower_expr ctx env) highs)
  | Resize (a, w) -> W.resize ctx.b (lower_expr ctx env a) w

(* Merge two branch environments under a select bit: for each name whose
   words differ, insert a mux. Both environments are total over the same
   key set by construction. *)
let merge_env ctx ~sel (env_t : env) (env_f : env) : env =
  let merged = Hashtbl.create ~random:false (Hashtbl.length env_t) in
  Hashtbl.iter
    (fun name wt ->
      let wf = Hashtbl.find env_f name in
      let w = if wt = wf then wt else W.mux ctx.b ~sel ~t1:wt ~t0:wf in
      Hashtbl.replace merged name w)
    env_t;
  merged

let rec lower_stmt ctx (env : env) (s : stmt) : env =
  match s with
  | Null -> env
  | Assign (name, e) ->
    Hashtbl.replace env name (lower_expr ctx env e);
    env
  | If (c, then_branch, else_branch) ->
    let sel = (lower_expr ctx env c).(0) in
    let env_t = lower_stmts ctx (env_copy env) then_branch in
    let env_f = lower_stmts ctx (env_copy env) else_branch in
    merge_env ctx ~sel env_t env_f
  | Case (scrut, arms, others) ->
    let sw = lower_expr ctx env scrut in
    (* Case choices are pairwise disjoint by construction (the checker
       rejects duplicates), so the merged value of every written name is
       a one-hot select over the arm environments — not a mux chain,
       whose pass-through terms over disjoint selects would synthesise
       redundant (untestable) logic. *)
    let hit_of_arm (choices, _) =
      List.fold_left
        (fun acc_bit l ->
          let cw = W.const_word ctx.b ~width:(Array.length sw) (lit_value l) in
          B.or_ ctx.b acc_bit (W.eq ctx.b sw cw))
        (B.const ctx.b false) choices
    in
    let arm_envs =
      List.map (fun (_, body) -> lower_stmts ctx (env_copy env) body) arms
    in
    (* The default environment and the arms whose hit bits must be
       computed explicitly. Without an [others] arm the checker has
       proven full coverage, so the last arm's hit is implied by the
       other hits all being low — using it as the default avoids a
       structurally constant-false select term. *)
    let explicit_arms, explicit_envs, default_env =
      match others with
      | Some body -> (arms, arm_envs, lower_stmts ctx (env_copy env) body)
      | None ->
        (match List.rev arms, List.rev arm_envs with
         | _ :: rev_arms, last_env :: rev_envs ->
           (List.rev rev_arms, List.rev rev_envs, last_env)
         | [], _ | _, [] -> (arms, arm_envs, env))
    in
    let hits = List.map hit_of_arm explicit_arms in
    let no_hit =
      B.not_ ctx.b (List.fold_left (B.or_ ctx.b) (B.const ctx.b false) hits)
    in
    let merged = Hashtbl.create ~random:false (Hashtbl.length env) in
    Hashtbl.iter
      (fun name base_word ->
        let arm_words = List.map (fun e -> Hashtbl.find e name) explicit_envs in
        let all_same = List.for_all (fun w -> w = base_word) arm_words in
        let value =
          if all_same then base_word
          else
            W.one_hot_select ctx.b
              (List.combine hits arm_words)
              ~default:(no_hit, base_word)
        in
        Hashtbl.replace merged name value)
      default_env;
    merged

and lower_stmts ctx env ss = List.fold_left (lower_stmt ctx) env ss

let run (d : design) =
  if not (Check.is_elaborated d) then fail "%s: design not elaborated" d.name;
  let b = B.create d.name in
  let ctx = { b; design = d; fixed = Hashtbl.create 16 } in
  let bind rank name w =
    match Hashtbl.find_opt ctx.fixed name with
    | Some (r, _) when r < rank -> ()
    | Some _ | None -> Hashtbl.replace ctx.fixed name (rank, w)
  in
  (* Interface and state elements. *)
  List.iter
    (fun (dc : decl) ->
      match dc.kind with
      | Input ->
        bind 1 dc.name (Array.init dc.width (fun i -> B.input b (bit_name dc.name dc.width i)))
      | Reg reset ->
        let rv = lit_value reset in
        bind 0 dc.name (Array.init dc.width (fun i -> B.dff b ~init:((rv lsr i) land 1 = 1)))
      | Const_decl v -> bind 2 dc.name (W.const_word b ~width:dc.width (lit_value v))
      | Output | Var -> ())
    d.decls;
  let q_word name = snd (Hashtbl.find ctx.fixed name) in
  (* Initial environment: outputs and vars at zero, register next-values
     holding the current state. *)
  let env : env = Hashtbl.create ~random:false 16 in
  List.iter
    (fun (dc : decl) ->
      match dc.kind with
      | Output | Var -> Hashtbl.replace env dc.name (W.const_word b ~width:dc.width 0)
      | Reg _ -> Hashtbl.replace env dc.name (q_word dc.name)
      | Input | Const_decl _ -> ())
    d.decls;
  let env = lower_stmts ctx env d.body in
  (* Connect register D pins and primary outputs. *)
  List.iter
    (fun (dc : decl) ->
      match dc.kind with
      | Reg _ ->
        let q = q_word dc.name in
        let next = Hashtbl.find env dc.name in
        Array.iteri (fun i qn -> B.connect_dff b qn ~d:next.(i)) q
      | Output ->
        let w = Hashtbl.find env dc.name in
        Array.iteri (fun i net -> B.output b (bit_name dc.name dc.width i) net) w
      | Input | Var | Const_decl _ -> ())
    d.decls;
  B.finalize b
