(** Equivalence checking between a design and a mutant: the one place
    that decides how a mutant's equivalence is settled.

    The oracle ({!make}, {!decide}) is prepared once per design, and
    the design picks one of three exact regimes:

    - sequential designs: {!product_bfs} with its default limits (12
      input bits per cycle, 65536 joint states);
    - combinational designs with at most 16 input bits:
      {!exhaustive_combinational};
    - wider combinational designs: the SAT miter
      ({!Mutsamp_sat.Equiv.check}) between the reference netlist and
      the synthesized mutant; a model maps back to one word-level
      stimulus.

    Vectorgen's directed phase and [Pipeline.classify_equivalents] both
    ask it. The exhaustive regime spends no [Sat_conflicts] and counts
    no [sat.solves]; a mutant that fails to synthesize is [Unknown].

    The two simulation engines stay exported for direct use:

    - {!exhaustive_combinational}: truth-table comparison, exact for
      register-free designs whose input space fits the bit budget;
    - {!product_bfs}: breadth-first exploration of the product machine
      from the joint reset state, exact for sequential designs whose
      reachable product state space and per-cycle input space fit the
      budgets. The counterexample it returns is a shortest
      distinguishing sequence, which doubles as a directed
      mutant-killing test. *)

type verdict =
  | Equivalent
  | Distinguished of Mutsamp_hdl.Sim.stimulus list
      (** a sequence that drives the two designs to different outputs *)
  | Unknown  (** budgets exhausted: not proven either way *)

val verdict_name : verdict -> string

val exhaustive_combinational :
  ?max_bits:int -> Mutsamp_hdl.Ast.design -> Mutsamp_hdl.Ast.design -> verdict
(** Compare truth tables. [max_bits] (default 16) bounds the input
    space at [2^max_bits] vectors; wider designs yield {!Unknown}.
    Raises [Invalid_argument] if either design has registers or the
    interfaces differ. *)

val product_bfs :
  ?max_bits:int ->
  Mutsamp_hdl.Ast.design ->
  Mutsamp_hdl.Ast.design ->
  verdict
(** Explore the product machine, visiting at most 65536 joint states;
    [max_bits] (default 12) bounds the per-cycle input space. Raises [Invalid_argument] if the interfaces differ. *)

type t
(** A prepared oracle for one reference design. Safe to share across
    domains. *)

val make : ?netlist:Mutsamp_netlist.Netlist.t -> Mutsamp_hdl.Ast.design -> t
(** [netlist] is the design's synthesized netlist, used as the miter's
    reference; without it the oracle synthesizes the design once, on
    the first mutant that needs the miter. *)

type regime =
  | Exhaustive  (** {!exhaustive_combinational} *)
  | Product  (** {!product_bfs} *)
  | Miter  (** SAT miter over the synthesized pair *)

val regime : t -> regime
(** The regime {!decide} uses. A mutant keeps its design's
    declarations, so it is the design's. *)

val decide :
  ?budget:Mutsamp_robust.Budget.t ->
  t ->
  Mutsamp_hdl.Ast.design ->
  (verdict, Mutsamp_robust.Error.t) result
(** Settle the mutant against the reference design. Limits exceeded, a
    mutant or reference that fails to synthesize, or a miter the SAT
    layer rejects give [Ok Unknown]. A miter solve cut by [budget]
    (default: ambient; [Sat_conflicts] and the deadline) gives
    [Error]. Each [Unknown] or cut is counted under [equiv.unknown].
    Raises [Invalid_argument] if the interfaces differ. *)

val same_interface : Mutsamp_hdl.Ast.design -> Mutsamp_hdl.Ast.design -> bool
(** Same input and output names and widths, in order. *)
