(** Cause-effect fault diagnosis.

    Given the responses a defective combinational device produced on a
    set of test patterns, rank the single stuck-at candidates by how
    well their simulated behaviour explains the observations. A
    candidate {e explains} the data when its predicted response equals
    the observation on every applied pattern; candidates that merely
    match on most patterns get partial scores (useful when the defect
    is not a perfect single stuck-at). *)

type observation = {
  pattern : Pattern.t;  (** input pattern, as in {!Fsim} *)
  response : Mutsamp_util.Packvec.t;
      (** observed output bits, output [k] in bit [k] of the vector *)
}

type verdict = {
  fault : Fault.t;
  matches : int;  (** patterns where prediction = observation *)
  explains : bool;  (** matches every observation *)
}

val simulate_response :
  Mutsamp_netlist.Netlist.t -> Fault.t option -> Pattern.t -> Mutsamp_util.Packvec.t
(** Response of the (faulty) circuit on one pattern; [None] simulates
    the good machine. *)

val rank :
  Mutsamp_netlist.Netlist.t ->
  candidates:Fault.t list ->
  observations:observation list ->
  verdict list
(** Sorted best-first (most matches, ties in fault order). Raises
    [Invalid_argument] on an empty observation list or a sequential
    netlist. *)

val perfect_matches :
  Mutsamp_netlist.Netlist.t ->
  candidates:Fault.t list ->
  observations:observation list ->
  Fault.t list
(** Just the candidates that explain everything. *)

(** {1 Fault dictionaries}

    Production testers diagnose against a precomputed dictionary
    instead of re-simulating: one pass stores every candidate's
    response to every dictionary pattern, then each lookup is a table
    scan. *)

type dictionary

val build :
  Mutsamp_netlist.Netlist.t ->
  candidates:Fault.t list ->
  patterns:Pattern.t array ->
  dictionary

val lookup : dictionary -> responses:Mutsamp_util.Packvec.t array -> Fault.t list
(** Candidates whose stored responses equal [responses] (one observed
    response per dictionary pattern, same order). Raises
    [Invalid_argument] on a length mismatch. Equivalent to
    {!perfect_matches} over the dictionary's patterns — a property the
    test suite checks. *)
