type binop =
  | Add | Sub
  | And | Or | Xor | Nand | Nor | Xnor
  | Eq | Neq | Lt | Le | Gt | Ge

type unop = Not

type literal = { value : int; width : int option }

type expr =
  | Const of literal
  | Ref of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Bit of expr * int
  | Slice of expr * int * int
  | Concat of expr * expr
  | Resize of expr * int

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Case of expr * (literal list * stmt list) list * stmt list option
  | Null

type kind =
  | Input
  | Output
  | Reg of literal
  | Var
  | Const_decl of literal

type decl = { name : string; width : int; kind : kind }

type design = { name : string; decls : decl list; body : stmt list }

let lit ?width value = { value; width }
let const ?width value = Const (lit ?width value)

let is_commutative = function
  | Add | And | Or | Xor | Nand | Nor | Xnor | Eq | Neq -> true
  | Sub | Lt | Le | Gt | Ge -> false

let is_logical = function
  | And | Or | Xor | Nand | Nor | Xnor -> true
  | Add | Sub | Eq | Neq | Lt | Le | Gt | Ge -> false

let is_arith = function
  | Add | Sub -> true
  | And | Or | Xor | Nand | Nor | Xnor | Eq | Neq | Lt | Le | Gt | Ge -> false

let is_relational = function
  | Eq | Neq | Lt | Le | Gt | Ge -> true
  | Add | Sub | And | Or | Xor | Nand | Nor | Xnor -> false

let binop_name = function
  | Add -> "+" | Sub -> "-"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Nand -> "nand" | Nor -> "nor" | Xnor -> "xnor"
  | Eq -> "=" | Neq -> "/=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let filter_kind pred d = List.filter (fun dc -> pred dc.kind) d.decls

let inputs d = filter_kind (function Input -> true | Output | Reg _ | Var | Const_decl _ -> false) d
let outputs d = filter_kind (function Output -> true | Input | Reg _ | Var | Const_decl _ -> false) d
let regs d = filter_kind (function Reg _ -> true | Input | Output | Var | Const_decl _ -> false) d
let vars d = filter_kind (function Var -> true | Input | Output | Reg _ | Const_decl _ -> false) d

let equal_expr (a : expr) (b : expr) = a = b
let equal_design (a : design) (b : design) = a = b

let rec stmt_count = function
  | Assign _ | Null -> 1
  | If (_, t, e) -> 1 + stmts_count t + stmts_count e
  | Case (_, arms, others) ->
    let arms_n = List.fold_left (fun acc (_, ss) -> acc + stmts_count ss) 0 arms in
    let others_n = match others with None -> 0 | Some ss -> stmts_count ss in
    1 + arms_n + others_n

and stmts_count ss = List.fold_left (fun acc s -> acc + stmt_count s) 0 ss

let count_statements d = stmts_count d.body
