(** Miter-based combinational equivalence checking.

    Two netlists with identical interfaces (the same input and output
    names, in the same order) are joined on their primary inputs by
    position: input [k] of both reads one shared variable. Output [k]
    of one and output [k] of the other feed an XOR, and the disjunction
    of the XORs is asserted. UNSAT proves equivalence; a model is a
    counterexample input assignment. Sequential netlists are rejected —
    the behavioural level handles those (product-machine BFS). *)

type verdict =
  | Equivalent
  | Counterexample of bool array
      (** the value of every primary input, in [input_nets] order *)

exception Equiv_error of string

val check :
  ?budget:Mutsamp_robust.Budget.t ->
  Mutsamp_netlist.Netlist.t ->
  Mutsamp_netlist.Netlist.t ->
  (verdict, Mutsamp_robust.Error.t) result
(** The miter solve spends [Sat_conflicts] and obeys the deadline; see
    {!Solver.solve}. Still raises {!Equiv_error} on interface mismatch
    or a sequential netlist (caller bug, not a runtime hazard).
    [budget] defaults to the ambient budget. *)

val counterexample_is_real :
  Mutsamp_netlist.Netlist.t ->
  Mutsamp_netlist.Netlist.t ->
  bool array ->
  bool
(** Replay a counterexample on both netlists and confirm the outputs
    differ (test oracle). *)
