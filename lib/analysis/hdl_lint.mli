(** Behavioural-level lint over an elaborated design.

    [Hdl.Check] reports the hard structural errors (undeclared names,
    width mismatches); this pass reports the semantic smells — [HDL001]..[HDL007] in the catalogue
    ([docs/ANALYSIS.md]). *)

val run : circuit:string -> Mutsamp_hdl.Ast.design -> Diag.t list
(** Requires an elaborated design. Diagnostics come back unsorted and
    unwaived; {!Engine} applies waivers and ordering. *)
