(** The industrial test-generation flow the paper's proposal plugs into:
    seed patterns (free validation data), a pseudo-random phase, then
    deterministic ATPG for the faults that remain.

    Running it with different seed sets quantifies how much ATPG effort
    the validation data saves — the claim of the paper's introduction
    (experiment E3 in DESIGN.md). *)

type generator = Use_podem | Use_sat
(** Deterministic test generator for phase 3 (PODEM or SAT). *)

type report = {
  total_faults : int;
  seed_detected : int;  (** detected by the seed patterns *)
  random_detected : int;  (** additionally detected by the random phase *)
  atpg_detected : int;  (** additionally detected by deterministic tests *)
  untestable : int;  (** proven redundant *)
  aborted : int;
      (** left undetected with unknown status: PODEM hit its backtrack
          limit, or the run degraded before the fault was resolved *)
  final_coverage_percent : float;  (** over testable faults *)
  seed_patterns : int;
  random_patterns : int;
  atpg_calls : int;
  atpg_patterns : int;  (** deterministic vectors added *)
  degraded : bool;
      (** deterministic ATPG was cut short by budget/deadline/injection
          and the random fallback ran *)
  degraded_retries : int;  (** fallback rounds actually taken *)
  degraded_detected : int;  (** additionally detected by the fallback *)
  test_set : Mutsamp_fault.Pattern.t array;
      (** the complete final pattern set, in order *)
}

val run :
  ?generator:generator ->
  ?random_budget:int ->
  ?seed:int ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_netlist.Netlist.t ->
  faults:Mutsamp_fault.Fault.t list ->
  seed_patterns:Mutsamp_fault.Pattern.t array ->
  report
(** [run nl ~faults ~seed_patterns] executes the three phases on a
    combinational netlist (apply {!Scan.full_scan} first for sequential
    designs).

    The random phase draws batches of 63 uniform patterns and stops
    after 4 consecutive batches with no new detection or when
    [random_budget] patterns (default 4096) have been applied. Every
    deterministic test is fault-simulated against the remaining faults
    so one ATPG call can cover several faults.
    Each PODEM call may take 2000 backtracks; a call that runs out
    reports its fault as [aborted]. XOR-dominated circuits are
    PODEM's worst case — prefer [Use_sat] there.

    Phase 3 targets the remaining faults in their given order, one
    deterministic call per fault not already dropped; [untestable]
    counts the faults the generator proves redundant.

    [ctx] (default {!Mutsamp_exec.Ctx.default}) carries the execution
    pool and budget. With a pool, the fault-simulation passes shard
    across worker domains; the flow itself is sequential, so reports
    stay bit-identical to the sequential path.

    Degradation: when the context budget (default: ambient) is
    exhausted — SAT
    conflicts, PODEM backtracks or the wall-clock deadline — the
    deterministic phase stops and up to 3 random top-off rounds run
    instead, doubling the vector count each round. The run then {e returns} a report with [degraded = true] and
    partial coverage rather than failing; pending faults are counted as
    [aborted]. Under the default unlimited budget the deterministic
    phase targets every remaining fault, no fallback round runs and
    [degraded] is [false]. *)
