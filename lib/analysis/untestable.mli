(** Static blocked-net proofs, no SAT solving.

    A forward "may-differ" pass from a net. A difference propagates
    through And/Nand only when the side input is not a constant 0
    (dually 1 for Or/Nor); Xor/Xnor/Buf/Not never block; Dff carries a
    difference across cycles, so the pass iterates to a fixpoint on
    sequential circuits. If no primary output may ever differ, every
    stuck-at fault on the net is untestable. Lint rule NL004 reports
    such nets.

    The pass is conservative: [stem_observable] returning [true] says
    nothing; [false] is a proof. *)

type t

val analyze : Mutsamp_netlist.Netlist.t -> t
(** One constant-propagation pass, shared by every [stem_observable]
    call. *)

val stem_observable : t -> int -> bool
(** Could a value change seeded at this net ever reach a primary
    output? [false] is a proof that it cannot (the net is blocked). *)
