(** Expression normalization over elaborated designs, used by the HDL
    lint to recognise constant conditions.

    The rewriter works bottom-up: constant folding with exactly the
    simulator's masking semantics, local algebraic identities on
    syntactically equal (hence pure, hence value-equal) operands
    ([x and x], [a <= a], [x xor not x]), canonical operand order for
    commutative operators and relational canonicalisation ([a > b] to
    [b < a], one-bit comparisons to logic gates). An expression it
    reduces to a literal evaluates to that literal under every input
    assignment. *)

val normalize_expr :
  Mutsamp_hdl.Ast.design -> Mutsamp_hdl.Ast.expr -> Mutsamp_hdl.Ast.expr
(** Normalize one expression in the design's declaration environment
    (the design supplies signal widths). Requires an elaborated design
    (every literal sized). *)

val expr_reads_name : string -> Mutsamp_hdl.Ast.expr -> bool
(** Whether the expression reads the named signal. *)
