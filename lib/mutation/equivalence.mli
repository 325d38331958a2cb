(** Equivalence checking between a design and a mutant: the one place
    that decides how a mutant's equivalence is settled.

    The oracle ({!make}, {!decide}) is prepared once per design on the
    {!Kill} runner over it, and runs what the runner compiled. The
    design picks one of two exact regimes:

    - {!Search}, for sequential designs with at most 12 input bits and
      combinational ones with at most 16: the product-machine search
      {!Mutsamp_netlist.Product.search} over the reference's program and
      the mutant's ({!Mutant.t}'s [program] slot). Its counterexample
      is a shortest distinguishing sequence, which doubles as a
      directed mutant-killing test. More input bits on a sequential
      design, or more than 65536 reachable joint states, give
      [Unknown];
    - {!Miter}, for wider combinational designs: the SAT miter
      ({!Mutsamp_sat.Equiv.check}) between the reference netlist and
      the synthesized mutant; a model gives one value per input
      position, and the reference's {!Mutsamp_synth.Mapping} reads it
      back as one word-level stimulus. Before the miter is built, the two netlists are
      compared: equal gates (kinds and fanins), input nets, outputs
      (names and nets) and flip-flop nets, the name left out, settle
      the mutant [Equivalent] with no solve, counted under
      [equiv.structural]. Synthesis is deterministic and the miter
      compares exactly these netlists, so the verdict is the one the
      solve would reach.

    Vectorgen's directed phase and [Pipeline.classify_equivalents] both
    ask it. The search spends no [Sat_conflicts] and counts no
    [sat.solves]; a mutant that fails to synthesize or compile is
    [Unknown]. *)

type verdict =
  | Equivalent
  | Distinguished of Mutsamp_hdl.Sim.stimulus list
      (** a sequence that drives the two designs to different outputs *)
  | Unknown  (** budgets exhausted: not proven either way *)

val verdict_name : verdict -> string

type t
(** A prepared oracle for one reference design. Safe to share across
    domains. *)

val make : Kill.t -> t
(** The oracle for the runner's original design; the reference's
    mapping, netlist and program are the runner's. In the search regime
    it packs every input code once, for all decides on any domain. *)

type regime =
  | Search  (** {!Mutsamp_netlist.Product.search} over the two programs *)
  | Miter  (** SAT miter over the synthesized pair *)

val regime : t -> regime
(** The regime {!decide} uses. A mutant keeps its design's
    declarations, so it is the design's. *)

val decide :
  ?budget:Mutsamp_robust.Budget.t ->
  t ->
  Mutant.t ->
  (verdict, Mutsamp_robust.Error.t) result
(** Settle the mutant against the reference design. Limits exceeded, a
    mutant that fails to synthesize or compile, or a miter the SAT
    layer rejects give [Ok Unknown]. A miter solve cut by [budget]
    (default: ambient; [Sat_conflicts] and the deadline) gives
    [Error]. Each [Unknown] or cut is counted under [equiv.unknown].
    Raises [Invalid_argument] if the interfaces differ.

    Each mutant is decided once per process. The first conclusive
    verdict ([Equivalent] or [Distinguished]) is written to the
    mutant's {!Mutant.verdict} slot, tagged with the design of the
    oracle that reached it, and kept for the mutant's lifetime. A later
    decide by any oracle whose design is physically equal ([==]) to
    the tag returns it, counted under [equiv.reused]; every regime is
    deterministic, so this is exactly what a fresh decide returns,
    [Distinguished] sequence included. A decide by an oracle of any
    other design computes its verdict afresh and leaves a settled slot
    as it is; but the first conclusive decide fixes the tag, whatever
    its design, so a mutant first settled against a foreign design
    never reuses a verdict against its own. Campaigns decide each
    mutant only against the design it was generated from. [Unknown]
    and cut solves are never kept. Concurrent decides of one mutant,
    against any design, wait for the first, on a lock of that mutant's
    own, so SAT still runs in parallel across mutants.

    The netlist comparison is not a solve: it spends no
    [Sat_conflicts] under any quota and passes no chaos point, but it
    gives [Error (Timeout Sat)] once [budget]'s deadline has passed.
    So under a finite quota it settles mutants the quota would have
    cut, and the same quota covers the solves that remain.

    A kept miter verdict is returned only when [budget]'s
    [Sat_conflicts] quota is unlimited; under a finite quota the
    decide runs again and spends or is cut as a fresh decide would. A
    returned miter verdict passes the solve-entry chaos point (unless
    the netlist comparison reached it), and gives
    [Error (Timeout Sat)] once [budget]'s deadline has passed.
    The deadline is wall-clock time, so a hit, which is faster than
    the solve it replaces, may finish inside a deadline the solve
    would have missed. *)

val same_interface : Mutsamp_hdl.Ast.design -> Mutsamp_hdl.Ast.design -> bool
(** Same input and output names and widths, in order. *)
