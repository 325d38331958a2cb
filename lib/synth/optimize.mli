(** Netlist clean-up passes.

    The builder already performs constant folding and structural
    hashing while gates are created; what remains after lowering is
    logic that no primary output or register can observe. {!sweep}
    removes it. *)

val sweep : Mutsamp_netlist.Netlist.t -> Mutsamp_netlist.Netlist.t
(** Dead-gate elimination: keep the nets reachable backwards from the
    primary outputs (crossing flip-flops into their D cones) plus every
    primary input, renumber, and rebuild. Output and input names and
    order are preserved. *)

val sweep_stats :
  Mutsamp_netlist.Netlist.t -> Mutsamp_netlist.Netlist.t * int
(** {!sweep} plus the number of gates removed. *)
