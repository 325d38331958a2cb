(** PODEM: path-oriented decision making, for combinational netlists.

    The search assigns primary inputs only. Each step derives an
    objective (activate the fault, then advance the D-frontier, scanned
    over the fault's fanout cone), backtraces it to a primary-input
    assignment, implies it, and backtracks on failure. Implication is
    event-driven: each one re-evaluates, level by level, only the gates
    downstream of the inputs assigned since the previous one (the first
    propagates the constants), and every net ends at the value a full
    five-valued pass would give. PODEM is complete: with an unbounded
    backtrack budget, [Untestable] is a proof of redundancy. *)

type stats = {
  backtracks : int;
  implications : int;
      (** implication passes, each re-evaluating only the cone of the
          inputs it changed *)
}

val find_test :
  ?backtrack_limit:int ->
  ?guided:bool ->
  ?budget:Mutsamp_robust.Budget.t ->
  Mutsamp_netlist.Netlist.t ->
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
    reverts to first-X-input/first-frontier choices (the A3 ablation).
    Raises [Invalid_argument] on a sequential netlist (use
    {!Scan.full_scan} first). *)
