(** Tseitin encoding of netlists into CNF.

    Each net receives one CNF variable; each gate contributes the
    standard consistency clauses. Flip-flop outputs are treated as free
    variables (pseudo primary inputs), which is the full-scan
    combinational view used by the SAT ATPG and the miter check. *)

type t = {
  cnf : Cnf.t;
  var_of_net : int array;  (** CNF variable of every net *)
}

val encode : ?into:Cnf.t -> Mutsamp_netlist.Netlist.t -> t
(** Encode the combinational logic of a netlist. When [into] is given,
    clauses and variables are added to an existing formula (used to put
    two circuits in one miter). *)

val encode_shared :
  into:Cnf.t -> share_inputs:Cnf.lit array -> Mutsamp_netlist.Netlist.t -> t
(** Like {!encode}, but input [k] (the net [input_nets.(k)]) takes the
    CNF variable [share_inputs.(k)] instead of a fresh one (miter
    construction: both netlists read the same variables by position).
    The empty array shares nothing. Fresh variables go to the other
    nets in net order. Raises [Invalid_argument] when [share_inputs] is
    neither empty nor one variable per input. *)

val xor_out : Cnf.t -> Cnf.lit -> Cnf.lit -> Cnf.lit
(** Fresh literal constrained to the XOR of two literals. *)

val or_list : Cnf.t -> Cnf.lit list -> Cnf.lit
(** Fresh literal constrained to the OR of the given literals.
    Raises [Invalid_argument] on the empty list. *)
