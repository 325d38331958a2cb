(** Semantic checker and elaborator.

    {!elaborate} validates a parsed design and returns an equivalent
    design in which every literal carries a definite width. The
    simulator, the mutation engine and synthesis all require an
    elaborated design; they assert sized literals.

    Checked properties: unique declarations; references resolve and are
    readable (outputs are write-only); assignment targets are outputs,
    registers or variables; operand widths agree, with unsized literals
    adopting the width of their context; bit/slice indices in range;
    case choices fit the scrutinee, are pairwise distinct and — absent a
    [when others] arm — cover the full value range; register resets and
    named constants fit their declared widths. *)

exception Check_error of string

val elaborate : Ast.design -> Ast.design
(** Validate and size. Raises {!Check_error} on any violation. *)

val is_elaborated : Ast.design -> bool
(** True when every literal in the design is sized. *)

val is_combinational : Ast.design -> bool
(** True when the design declares no registers. *)
