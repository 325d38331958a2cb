(** Abstract syntax of the behavioural HDL.

    The language models one synchronous design: ports, registers with
    reset values, process-local variables and named constants, plus a
    statement list executed once per clock cycle in sequential (VHDL
    variable) order. Register assignments take effect at the end of the
    cycle; reads during the cycle observe the pre-cycle value. This is
    the classic synthesisable two-process idiom, and it is the level at
    which the mutation operators of Al-Hayek & Robach apply.

    Constants parsed from source may be unsized (a bare decimal literal);
    {!Check.elaborate} resolves every constant to a definite width before
    the design reaches the simulator, the mutation engine or synthesis. *)

type binop =
  | Add | Sub
  | And | Or | Xor | Nand | Nor | Xnor
  | Eq | Neq | Lt | Le | Gt | Ge

type unop = Not

type literal = {
  value : int;  (** unsigned payload *)
  width : int option;  (** [None] until elaboration *)
}

type expr =
  | Const of literal
  | Ref of string  (** input, register, variable or named constant *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Bit of expr * int  (** single-bit select, LSB = 0 *)
  | Slice of expr * int * int  (** [Slice (e, hi, lo)] inclusive *)
  | Concat of expr * expr  (** first operand in the upper bits *)
  | Resize of expr * int  (** zero-extend or truncate *)

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Case of expr * (literal list * stmt list) list * stmt list option
      (** scrutinee, [when] arms, optional [when others] arm *)
  | Null

type kind =
  | Input
  | Output
  | Reg of literal  (** reset value *)
  | Var
  | Const_decl of literal

type decl = { name : string; width : int; kind : kind }

type design = { name : string; decls : decl list; body : stmt list }

(** {1 Helpers} *)

val lit : ?width:int -> int -> literal
val const : ?width:int -> int -> expr
val is_commutative : binop -> bool
val is_logical : binop -> bool
(** [And .. Xnor]. *)

val is_arith : binop -> bool
(** [Add | Sub]. *)

val is_relational : binop -> bool
(** [Eq .. Ge]. *)

val binop_name : binop -> string

val inputs : design -> decl list
val outputs : design -> decl list
val regs : design -> decl list
val vars : design -> decl list

val equal_expr : expr -> expr -> bool
val equal_design : design -> design -> bool

val count_statements : design -> int
(** Number of statement nodes, [Null] included (size metric for reports). *)
