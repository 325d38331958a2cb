(** Stuck-at fault simulation with fault dropping: one backend per
    circuit regime behind one entry point, plus a serial reference.

    Patterns are {!Pattern.t} values over the netlist's primary inputs
    in [input_nets] order (bit [k] of the pattern feeds input [k]) —
    arbitrary input counts, no integer-code ceiling. The synthesis
    {!Mutsamp_synth.Mapping} layer produces them from word-level
    stimuli via netlist input names.

    {!run} picks the backend from the netlist, bit-identical in its
    reports to {!serial}. Both run the netlist compiled to a
    {!Mutsamp_netlist.Program}, one gate code word per gate:
    - combinational netlists run {e compiled}: [Program.step] runs the
      good machine over 63 patterns at once, and each fault site's
      fanout cone, encoded over the same slots, runs with
      [Program.exec] on an overlay of the good values. A fault whose
      site is not excited in a batch skips its cone (elided gate
      evaluations recorded in [exec.events_skipped]);
    - sequential netlists run {e packed}, PROOFS-style parallel-fault
      simulation: [Program.step]
      runs the good machine once per cycle, and each cycle only the
      faults that are excited or whose flip-flop state has diverged are
      packed 63 to a word, one fault per lane. A word runs the program
      gate range by gate range with [Program.exec_range], forcing each
      lane's fault where the code reaches it; detected faults are
      dropped and the rest regroup every cycle. Faults proven
      untestable are never simulated (see {!run}).

    Both backends run a compiled netlist (layout, program and, for the
    compiled backend, the fault cones built so far). The last 8
    compiled are reused while runs receive the same netlist value
    ([==]); any other value, even a structurally equal one, is compiled
    afresh, on the calling domain before the shards fan out, its time
    recorded in [exec.compile_ms].

    The backend that ran is recorded by bumping one of the
    [fsim.engine.compiled] / [fsim.engine.packed] /
    [fsim.engine.serial] counters per call.

    All backends record, per fault, the index of the first detecting
    pattern (combinational) or cycle (sequential), which is what the
    coverage curves of the NLFCE metric need; the index is independent
    of the backend and of which faults share a word.

    Execution: {!run} and {!serial} take [?ctx] (default
    {!Mutsamp_exec.Ctx.default}: sequential, ambient budget). With a
    pool in the context the fault list is sharded into
    contiguous chunks — one per effective job — simulated on worker
    domains and merged back in fault-list order; per-fault
    first-detection indices do not depend on which other faults share a
    run, so the merged report is bit-identical to the sequential one.
    The context budget is split evenly across shards (leftovers
    refunded), and each shard spends one [Fsim_pairs] work unit per
    pattern·fault pair it simulates (a dropped fault is not simulated).
    Exhaustion never fails the run — simulation stops early, the
    remaining faults stay undetected in the report, and the
    degradation is recorded via {!Mutsamp_robust.Degrade} (once per
    affected shard). A chaos arming at [Fsim_run] is consulted by every
    shard, inside the worker, and behaves like immediate exhaustion
    ([Timeout]) or raises {!Mutsamp_robust.Chaos.Injected}
    ([Exception]). *)

type detection = Fsim_kernel.detection = {
  fault : Fault.t;
  detected_at : int option;
}

type report = Fsim_kernel.report = {
  total : int;
  detected : int;
  detections : detection array;  (** in fault-list order *)
  patterns_applied : int;
}

val coverage_percent : report -> float
(** [100 * detected / total]; 0 when the fault list is empty. *)

val coverage_at : report -> int -> float
(** Coverage achieved by the first [n] patterns/cycles alone. *)

val coverage_curve : report -> (int * float) list
(** [(n, coverage_at n)] for every prefix length [0..patterns_applied].
    Monotone non-decreasing. *)

val length_to_reach : report -> float -> int option
(** Shortest prefix achieving at least the given coverage, if any. *)

val run :
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_netlist.Netlist.t ->
  faults:Fault.t list ->
  sequence:Pattern.t array ->
  report
(** Simulate the fault list against the pattern sequence: compiled on a
    netlist without flip-flops, packed on one with them. For
    combinational netlists [sequence] is a set of independent patterns
    (order preserved in [detected_at] indexing); for sequential ones it
    is applied cycle by cycle from the reset state. The compiled
    backend simulates the patterns 63 to a batch; the packed one packs
    63 faults to a word.

    The packed backend skips every fault proven untestable on the
    compiled netlist and reports it undetected, in fault-list order: a
    fault no input sequence from reset detects. The proof is a
    {!Mutsamp_netlist.Product.search} over the good program and the
    program of [Inject.apply nl f] that finds them equal. Proofs are
    made on the next run: a run marks the faults it leaves undetected,
    and a later run on the same netlist value ([==]) searches the
    marked ones before it simulates, so a one-shot run proves nothing.
    Each search may reach [cycles / 2^input_bits] joint states, sized
    by the run that makes it, and none runs below 1; a search that
    hits its cap keeps its fault, to be tried again only under a larger
    cap. Reports are the same with or without the drop, except under a
    finite [Fsim_pairs] quota: admission charges kept faults only, so a
    later run may admit more faults than an earlier one. The drop and
    the searches are counted in [exec.fsim_untestable_dropped],
    [exec.fsim_proofs] and [exec.fsim_proof_states], and the searches
    run in an [fsim_prove] span. A dropped fault still adds every cycle
    of the run to [fsim.machine_steps], as {!serial} counts it.

    On sequential netlists the context's progress callback is invoked
    (stage ["faultsim"]) as faults are detected and once for the rest,
    dropped faults included, at the end; shards feed one
    {!Mutsamp_exec.Ctx.ticker}, so the count strictly increases under
    parallelism and ends at [N/N].

    Raises [Invalid_argument] if a pattern's width does not match the
    input count. *)

val serial :
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_netlist.Netlist.t ->
  faults:Fault.t list ->
  sequence:Pattern.t array ->
  report
(** The single-lane reference: every fault replayed on its own from the
    start of [sequence], on either regime. Slow; it exists as the
    anchor the differential tests hold {!run} to, detection flags and
    first-detection indices alike. Same sharding, budget and chaos
    behaviour as {!run}; the progress callback fires after each fault's
    replay. *)
