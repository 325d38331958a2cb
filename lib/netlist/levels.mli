(** Levelized netlist view for the compiled fault-sim backend:
    combinational gates in level order and dense int-array fanouts.
    Immutable after {!compute}, so one value is safely shared across
    simulation domains. *)

type t = private {
  nl : Netlist.t;
  order : int array;
      (** combinational gates only, level-ascending; same-level gates
          keep their topological order *)
  fanout_comb : int array array;
      (** per net: combinational gates reading it, ascending ids *)
}

val compute : Netlist.t -> t
val netlist : t -> Netlist.t
val num_comb_gates : t -> int
