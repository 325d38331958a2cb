(** Ternary constant propagation over gate-level netlists.

    Computes, for every net, whether its value is provably constant in
    the fault-free circuit. The lattice is {!value}: [Zero]/[One] mean
    "constant in every reachable state under every input", [Unknown]
    means "not proved constant" — the analysis is sound but incomplete.

    Beyond plain constant folding (seeded by [Const] gates) the
    evaluator recognises same-net and complementary-pair operands:
    [And(x, Not x)] is [Zero] even though the two fanins are distinct
    nets — the structural-hashing builder never folds that shape.

    Flip-flops start [Unknown] unless their D input is proved constant
    and equal to their reset value, in which case the register can
    never change and its output is that constant. *)

type value = Zero | One | Unknown

type t

val compute : Mutsamp_netlist.Netlist.t -> t

val value : t -> int -> value
(** The proved value of a net. *)

val constant_nets : t -> (int * bool) list
(** Nets proved constant whose gate is not itself a [Const] gate,
    ascending. *)

val num_constant : t -> int
(** [List.length (constant_nets t)]. *)
