open Mutsamp_hdl.Ast

(* --- environment ------------------------------------------------------- *)

type env = { widths : (string, int) Hashtbl.t }

let build_env (d : design) =
  let widths = Hashtbl.create 16 in
  List.iter (fun (dc : decl) -> Hashtbl.replace widths dc.name dc.width) d.decls;
  { widths }

let mask w = (1 lsl w) - 1

let lit_width (l : literal) =
  match l.width with
  | Some w -> w
  | None -> invalid_arg "Exprnorm.normalize_expr: unsized literal (design not elaborated)"

(* Width of a normalized expression, mirroring the simulator: a
   non-relational binop takes the width of its left operand. *)
let rec width_of env = function
  | Const l -> lit_width l
  | Ref name -> Hashtbl.find env.widths name
  | Unop (Not, e) -> width_of env e
  | Binop (op, a, _) -> if is_relational op then 1 else width_of env a
  | Bit _ -> 1
  | Slice (_, hi, lo) -> hi - lo + 1
  | Concat (a, b) -> width_of env a + width_of env b
  | Resize (_, w) -> w

let cst ~width value = Const { value = value land mask width; width = Some width }
let as_const = function Const l -> Some l.value | _ -> None

(* Structural complement test on normalized operands: [not x] never
   survives normalization as [not (not y)], so one level suffices. *)
let complementary a b =
  (match b with Unop (Not, b') -> equal_expr a b' | _ -> false)
  || (match a with Unop (Not, a') -> equal_expr a' b | _ -> false)

(* --- smart constructors ------------------------------------------------
   Each takes already-normalized children and returns a normalized
   expression. Every internal call strictly shrinks the term or moves
   to a constructor no rule rewrites again, so the rewriting
   terminates. *)

let rec mk_not _env a =
  match a with
  | Const l -> cst ~width:(lit_width l) (lnot l.value)
  | Unop (Not, x) -> x
  | _ -> Unop (Not, a)

and mk_logical env op a b =
  let w = width_of env a in
  let m = mask w in
  let fold va vb =
    match op with
    | And -> va land vb
    | Or -> va lor vb
    | Xor -> va lxor vb
    | Nand -> lnot (va land vb)
    | Nor -> lnot (va lor vb)
    | Xnor -> lnot (va lxor vb)
    | _ -> assert false
  in
  match as_const a, as_const b with
  | Some va, Some vb -> cst ~width:w (fold va vb)
  | _ ->
    if equal_expr a b then
      (match op with
       | And | Or -> a
       | Xor -> cst ~width:w 0
       | Xnor -> cst ~width:w m
       | Nand | Nor -> mk_not env a
       | _ -> assert false)
    else if complementary a b then
      (match op with
       | And | Nor -> cst ~width:w 0
       | Or | Nand | Xor -> cst ~width:w m
       | Xnor -> cst ~width:w 0
       | _ -> assert false)
    else
      let with_const v other =
        if v = 0 then
          (match op with
           | And -> Some (cst ~width:w 0)
           | Or | Xor -> Some other
           | Nand -> Some (cst ~width:w m)
           | Nor | Xnor -> Some (mk_not env other)
           | _ -> None)
        else if v = m then
          (match op with
           | And | Xnor -> Some other
           | Or -> Some (cst ~width:w m)
           | Xor | Nand -> Some (mk_not env other)
           | Nor -> Some (cst ~width:w 0)
           | _ -> None)
        else None
      in
      let folded =
        match as_const a, as_const b with
        | Some v, None -> with_const v b
        | None, Some v -> with_const v a
        | _ -> None
      in
      (match folded with
       | Some e -> e
       | None ->
         let a, b = if Stdlib.compare a b <= 0 then (a, b) else (b, a) in
         Binop (op, a, b))

and mk_arith env op a b =
  let w = width_of env a in
  match op, as_const a, as_const b with
  | Add, Some va, Some vb -> cst ~width:w (va + vb)
  | Sub, Some va, Some vb -> cst ~width:w (va - vb)
  | Add, Some 0, None -> b
  | Add, None, Some 0 -> a
  | Sub, None, Some 0 -> a
  | Sub, _, _ when equal_expr a b -> cst ~width:w 0
  | Add, _, _ ->
    let a, b = if Stdlib.compare a b <= 0 then (a, b) else (b, a) in
    Binop (Add, a, b)
  | _ -> Binop (op, a, b)

(* Comparisons are unsigned over masked values. [Gt]/[Ge] flip to
   [Lt]/[Le]; [Neq] becomes [not Eq]; one-bit comparisons become logic
   gates so the logical identities above apply to them too. *)
and mk_rel env op a b =
  match op with
  | Gt -> mk_rel env Lt b a
  | Ge -> mk_rel env Le b a
  | _ ->
    let w = width_of env a in
    if w = 1 then
      match op with
      | Lt -> mk_logical env And (mk_not env a) b
      | Le -> mk_logical env Or (mk_not env a) b
      | Eq -> mk_logical env Xnor a b
      | Neq -> mk_logical env Xor a b
      | _ -> assert false
    else
      let m = mask w in
      match as_const a, as_const b with
      | Some va, Some vb ->
        let r =
          match op with
          | Lt -> va < vb
          | Le -> va <= vb
          | Eq -> va = vb
          | Neq -> va <> vb
          | _ -> assert false
        in
        cst ~width:1 (if r then 1 else 0)
      | ca, cb ->
        if equal_expr a b then
          cst ~width:1 (match op with Le | Eq -> 1 | _ -> 0)
        else
          let eq x v = mk_eq env x (cst ~width:w v) in
          (match op, ca, cb with
           | Neq, _, _ -> mk_not env (mk_eq env a b)
           | Lt, _, Some 0 -> cst ~width:1 0
           | Lt, _, Some 1 -> eq a 0
           | Lt, _, Some v when v = m -> mk_not env (eq a m)
           | Lt, Some 0, _ -> mk_not env (eq b 0)
           | Lt, Some v, _ when v = m -> cst ~width:1 0
           | Le, _, Some v when v = m -> cst ~width:1 1
           | Le, _, Some 0 -> eq a 0
           | Le, _, Some v when v = m - 1 -> mk_not env (eq a m)
           | Le, Some 0, _ -> cst ~width:1 1
           | Le, Some 1, _ -> mk_not env (eq b 0)
           | Le, Some v, _ when v = m -> eq b m
           | Eq, _, _ -> mk_eq env a b
           | _ -> Binop (op, a, b))

and mk_eq _env a b =
  (* Only reached with operands wider than one bit and not both
     constant; just canonicalise the order. *)
  let a, b = if Stdlib.compare a b <= 0 then (a, b) else (b, a) in
  Binop (Eq, a, b)

let mk_binop env op a b =
  if is_logical op then mk_logical env op a b
  else if is_arith op then mk_arith env op a b
  else mk_rel env op a b

let mk_bit env a i =
  match a with
  | Const l -> cst ~width:1 (l.value lsr i)
  | _ -> if width_of env a = 1 && i = 0 then a else Bit (a, i)

let mk_slice env a hi lo =
  match a with
  | Const l -> cst ~width:(hi - lo + 1) (l.value lsr lo)
  | _ -> if lo = 0 && hi = width_of env a - 1 then a else Slice (a, hi, lo)

let mk_concat env a b =
  let wa = width_of env a and wb = width_of env b in
  match as_const a, as_const b with
  | Some va, Some vb when wa + wb <= 62 -> cst ~width:(wa + wb) ((va lsl wb) lor vb)
  | _ -> Concat (a, b)

let mk_resize env a w =
  match a with
  | Const l -> cst ~width:w l.value
  | _ -> if width_of env a = w then a else Resize (a, w)

let rec norm_expr env e =
  match e with
  | Const l -> cst ~width:(lit_width l) l.value
  | Ref _ -> e
  | Unop (Not, a) -> mk_not env (norm_expr env a)
  | Binop (op, a, b) -> mk_binop env op (norm_expr env a) (norm_expr env b)
  | Bit (a, i) -> mk_bit env (norm_expr env a) i
  | Slice (a, hi, lo) -> mk_slice env (norm_expr env a) hi lo
  | Concat (a, b) -> mk_concat env (norm_expr env a) (norm_expr env b)
  | Resize (a, w) -> mk_resize env (norm_expr env a) w

let normalize_expr (d : design) e = norm_expr (build_env d) e

let rec expr_reads_name name = function
  | Const _ -> false
  | Ref n -> n = name
  | Unop (_, e) | Bit (e, _) | Slice (e, _, _) | Resize (e, _) -> expr_reads_name name e
  | Binop (_, a, b) | Concat (a, b) -> expr_reads_name name a || expr_reads_name name b
