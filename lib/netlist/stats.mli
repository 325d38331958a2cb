(** Netlist size and structure metrics for reports. The region and
    reconvergence counts come from {!Regions.compute}. *)

type t = {
  nets : int;
  primary_inputs : int;
  primary_outputs : int;
  flip_flops : int;
  logic_gates : int;
  gate_histogram : (string * int) list;  (** kind name -> count, nonzero only *)
  levels : int;  (** combinational depth *)
  max_fanout : int;
  regions : int;  (** fanout-free regions *)
  max_region : int;  (** logic gates in the largest fanout-free region *)
  reconvergences : int;  (** multi-fanout stems whose branches reconverge *)
}

val compute : Netlist.t -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
