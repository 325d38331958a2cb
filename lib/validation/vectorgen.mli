(** Mutation-adequate validation-data generation.

    Implements the paper's data-generation step: candidate stimuli are
    proposed and kept only when they kill at least one still-alive
    mutant, so the resulting test set is mutation-adequate by
    construction. Two phases:

    - {e random phase}: candidate sequences are drawn uniformly
      (length 1 for combinational designs) until [max_stall]
      consecutive candidates kill nothing. {!Mutsamp_mutation.Kill}
      executes them in blocks of 63, but they are accepted one at a
      time in draw order, so the outcome is that of a
      one-candidate-at-a-time loop;
    - {e directed phase} (optional): each surviving mutant is settled
      by one equivalence oracle built on the call's kill runner
      ({!Mutsamp_mutation.Equivalence.decide}); a distinguishing
      sequence is added to the test set, a proof of equivalence marks
      the mutant equivalent, and an undecided or budget-cut check leaves
      it unknown.

    Everything is deterministic from [seed]. *)

type config = {
  seed : int;
  max_stall : int;  (** random candidates without a kill before stopping *)
  sequence_length : int;  (** cycles per candidate (sequential designs) *)
  max_vectors : int;  (** cap on the total test-set length in cycles *)
  directed : bool;  (** run the directed phase *)
  minimize : bool;
      (** post-pass: kept sequences are truncated after their last
          useful cycle during generation, and a greedy set cover then
          drops sequences whose kills are covered by others — the
          test-compaction step a validation flow would apply before
          re-using data as a structural test set *)
}

val default_config : config
(** seed 1, stall 200, sequences of 8 cycles, 4096-cycle cap, directed
    phase and minimisation on. *)

type outcome = {
  test_set : Mutsamp_hdl.Sim.stimulus list list;  (** kept sequences, in order *)
  killed : int list;  (** mutant indices killed by [test_set] *)
  equivalent : int list;  (** proven equivalent (directed phase) *)
  unknown : int list;  (** neither killed nor proven equivalent *)
  candidates_tried : int;
  total_vectors : int;  (** sum of sequence lengths *)
  degraded : string list;
      (** degradations taken under budget pressure (empty = exact run):
          human-readable descriptions, also recorded via
          {!Mutsamp_robust.Degrade} *)
}

val generate :
  ?config:config ->
  ?budget:Mutsamp_robust.Budget.t ->
  Mutsamp_hdl.Ast.design ->
  Mutsamp_mutation.Mutant.t list ->
  outcome
(** Generate validation data killing the given mutants. Indices in the
    outcome refer to positions in the supplied mutant list.

    Under [budget] (default: ambient) the run degrades instead of
    failing: the random phase stops at the deadline, a cut-short SAT
    attack or injected directed-phase failure leaves its mutant
    [unknown] (never spuriously equivalent), and each downgrade is
    listed in [degraded]. With the default unlimited budget nothing is
    cut short: [degraded] is empty and the outcome depends only on the
    configuration, the design and the mutants. *)

val flatten_test_set :
  outcome -> Mutsamp_hdl.Sim.stimulus list
(** All vectors of all sequences, in application order. *)
