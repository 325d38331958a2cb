(** The prepared form of one benchmark: behavioural design, synthesised
    netlist, its port map, collapsed fault list and mutant population —
    everything the experiments consume. Also the conversions between
    word-level validation data and the structural tools' pattern
    codes. *)

type t = {
  design : Mutsamp_hdl.Ast.design;
  netlist : Mutsamp_netlist.Netlist.t;
  mapping : Mutsamp_synth.Mapping.t;
  faults : Mutsamp_fault.Fault.t list;  (** collapsed representatives *)
  mutants : Mutsamp_mutation.Mutant.t list;
  sequential : bool;
  hashes : Cache.hashes Lazy.t;
      (** content hashes keying the campaign store; forced only by
          store-aware runs, always through {!hashes} *)
}

val prepare : Mutsamp_hdl.Ast.design -> t
(** Synthesise, collapse faults, enumerate mutants. *)

val hashes : t -> Cache.hashes
(** Force and return the content-hash bundle. Domain-safe: campaign
    cells on several worker domains may ask for it at once. *)

val pattern_of_stimulus : t -> Mutsamp_hdl.Sim.stimulus -> Mutsamp_fault.Pattern.t
(** Pattern over the netlist's bit-level inputs: bit [k] is the
    stimulus bit that [mapping] places on input position [k]. Raises
    {!Mutsamp_synth.Mapping.Mapping_error} on a malformed stimulus (see
    {!Mutsamp_synth.Mapping.set_inputs}). *)

val patterns_of_sequences :
  t -> Mutsamp_hdl.Sim.stimulus list list -> Mutsamp_fault.Pattern.t array
(** Concatenate validation sequences into one structural test sequence
    (applied from reset; sequence boundaries are not reset — the
    standard single-sequence test-application model, noted in
    DESIGN.md). *)

val fault_simulate :
  ?ctx:Mutsamp_exec.Ctx.t ->
  t ->
  Mutsamp_fault.Pattern.t array ->
  Mutsamp_fault.Fsim.report
(** {!Mutsamp_fault.Fsim.run} over the collapsed fault list: the
    compiled parallel-pattern backend for combinational circuits, the
    packed parallel-fault backend from reset for sequential ones.
    [ctx] (default {!Mutsamp_exec.Ctx.default}, sequential) supplies the
    domain pool, budget and progress callback — see {!Mutsamp_exec.Ctx}.

    With a store in the context, one entry under namespace ["fsim"],
    keyed by (netlist, fault list, sequence), serves both regimes: a
    warm run replays the recorded detection indices bit-identically
    without evaluating a single pattern·fault pair. Runs degraded by
    budget exhaustion or injection are never recorded. *)

val scan_patterns_of_sequences :
  t -> Mutsamp_hdl.Sim.stimulus list list -> Mutsamp_fault.Pattern.t array
(** Replay the sequences on the netlist and emit one full-scan pattern
    per cycle (primary inputs plus the state the cycle starts from) —
    the seed format for {!Mutsamp_atpg.Topoff} on scanned sequential
    circuits. For combinational circuits this equals
    {!patterns_of_sequences}. *)

val classify_equivalents :
  ?screen:int ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  seed:int ->
  t ->
  int list
(** Indices (into [mutants]) of the mutants that are provably
    equivalent to the design. A random screen of [screen] vectors
    (default 512) removes obviously killable mutants; survivors are
    settled exactly by one {!Mutsamp_mutation.Equivalence} oracle built
    on the screen's {!Mutsamp_mutation.Kill} runner (a search over the
    compiled programs, or the SAT miter on wide combinational designs).
    Mutants whose exact check is [Unknown] or blows its budget are
    treated as non-equivalent (conservative; they deflate MS rather than
    inflate it) and counted under [equiv.<design>.undecided]. The context progress callback fires after each exact check
    under stage ["equiv"] ([total] is the survivor count), from the
    worker domain that ran it but through one
    {!Mutsamp_exec.Ctx.ticker}, so the counts arrive in order — the
    checks dominate the runtime on larger designs.

    [ctx] (default {!Mutsamp_exec.Ctx.default}, sequential) carries the
    domain pool and budget. With a pool, both the screen and the exact
    phase shard over worker domains; verdicts merge in population order
    so the result is bit-identical to the sequential path. The context
    budget (default: ambient) bounds the whole classification: the
    screen spends [Fsim_pairs], each miter solve spends
    [Sat_conflicts], and the deadline is checked before every exact
    check. Exhaustion stops the exact phase — remaining survivors are
    reported non-equivalent and the degradation is recorded via
    {!Mutsamp_robust.Degrade}. *)
