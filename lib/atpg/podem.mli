(** PODEM: path-oriented decision making, for combinational netlists.

    The search assigns primary inputs only. Each step derives an
    objective (activate the fault, then advance the D-frontier, scanned
    over the fault's fanout cone), backtraces it to a primary-input
    assignment, implies it, and backtracks on failure. Implication is
    event-driven: each one re-evaluates, level by level, only the gates
    downstream of the inputs assigned since the previous one (the first
    propagates the constants), draining only the levels between the
    lowest and highest one scheduled, and every net ends at the value a
    full five-valued pass would give. A gate is evaluated by one read of
    {!Fivevalued}'s gate table. PODEM is complete: with an unbounded
    backtrack budget, [Untestable] is a proof of redundancy.

    The search runs over {!prepared} data: the netlist flattened into
    per-gate int arrays (table row, fanins, level), fanouts in CSR form,
    level bases, output flags, input positions and SCOAP measures. Build
    it once per netlist with {!prepare} and pass it to every
    {!find_test} call on that netlist; each call allocates its own
    search state, so one [prepared] value may serve any number of calls,
    from any domain. *)

type stats = {
  backtracks : int;
  implications : int;
      (** implication passes, each re-evaluating only the cone of the
          inputs it changed *)
}

type prepared
(** A combinational netlist as the search reads it. Never written after
    {!prepare}. *)

val prepare : Mutsamp_netlist.Netlist.t -> prepared
(** Raises [Invalid_argument] on a sequential netlist (use
    {!Scan.full_scan} first). *)

val find_test :
  ?backtrack_limit:int ->
  ?guided:bool ->
  ?budget:Mutsamp_robust.Budget.t ->
  prepared ->
  Mutsamp_fault.Fault.t ->
  (Mutsamp_fault.Pattern.t option * stats, Mutsamp_robust.Error.t) Stdlib.result
(** Typed-result entry point, separating the three ways a search ends:
    [Ok (Some p, _)] is a test, [Ok (None, _)] is a {e proof} that the
    fault is untestable, and [Error (Aborted Podem)] means the search
    hit [backtrack_limit] with the fault's status unknown — callers must
    not count it as redundant. One [Podem_backtracks] work unit is spent
    per backtrack against [budget] (default: ambient), yielding
    [Error (Budget_exhausted _)] / [Error (Timeout Podem)] when
    exhausted. [backtrack_limit] defaults to 10_000; [guided] (default
    true) enables the SCOAP branching heuristics — turning it off
    reverts to first-X-input/first-frontier choices (the A3 ablation). *)
