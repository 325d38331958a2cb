(** Pretty-printer for the HDL concrete syntax.

    [Parser.design_of_string (Pretty.design d)] re-reads as a design
    equal to [d] up to constant sizing, which the parser/elaborator
    round-trip property test relies on. *)

val literal : Ast.literal -> string
val expr : Ast.expr -> string
val stmt : ?indent:int -> Ast.stmt -> string
val design : Ast.design -> string
