(** Mutant execution: decide which mutants a test sequence kills.

    A mutant is killed by a sequence when, applying the sequence from
    reset to both the original design and the mutant, at least one
    output differs in at least one cycle.

    Every design runs as a compiled bit-parallel
    {!Mutsamp_netlist.Program}: the synthesized netlist flattened to one
    int per gate, evaluated over native-int words of {!lanes} lanes.
    The program reads input bits and writes output bits in the
    netlist's port order. The original's {!Mutsamp_synth.Mapping} places
    each stimulus on those input positions, and a mutant is compiled
    only when its netlist has the original netlist's input and output
    names, in order, so every program reads the same input words and
    its outputs compare bit for bit. A block of up to 63 sequences
    runs in one pass, one sequence per lane, each lane from reset; the
    original's outputs are computed once per block and every mutant is
    compared against them lane by lane. Sequences of different lengths
    share a block: a lane stops counting once its sequence ends.

    A mutant's program is compiled on the first {!make} or {!program}
    that needs it and kept in the mutant's write-once [program] slot
    ({!Mutant.t}), so every later reader — each vectorgen call, MS
    scoring, equivalence screening and search — reuses it. The
    original's program is compiled per {!make}. *)

type t
(** A runner holding the original design and a mutant population. *)

val make : Mutsamp_hdl.Ast.design -> Mutant.t list -> t
(** Compile the original and every mutant not compiled yet, under one
    [kill.compile] trace span. Raises {!Mutsamp_synth.Lower.Synth_error}
    when a design does not synthesize (an unelaborated design), and
    {!Mutsamp_synth.Mapping.Mapping_error} when the original's netlist
    lacks one of its port bits or a mutant's netlist ports are not the
    original netlist's, in order. *)

val original : t -> Mutsamp_hdl.Ast.design
val size : t -> int

val mapping : t -> Mutsamp_synth.Mapping.t
(** The original's port map, over its synthesized netlist. *)

val reference : t -> Mutsamp_netlist.Program.t
(** The original's program. *)

val program : t -> Mutant.t -> Mutsamp_netlist.Program.t
(** Any mutant's program, compiled into its slot first if the slot is
    empty. Raises as {!make} does. *)

val netlist : t -> Mutant.t -> Mutsamp_netlist.Netlist.t
(** A mutant's netlist, synthesized afresh on every call. Raises as
    {!make} does. *)

val lanes : int
(** Sequences per block (63). *)

val kills_at :
  t ->
  ?alive:int list ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_hdl.Sim.stimulus list ->
  (int * int) list
(** The mutants killed by the sequence, restricted to [alive] (default:
    the whole population), in candidate order, each with the 0-based
    cycle of its first differing output — so callers can truncate the
    sequence after its last useful cycle. [List.map fst] gives the
    killed indices. A one-lane {!run} followed by {!kills_in}. Raises
    {!Mutsamp_synth.Mapping.Mapping_error} on a malformed stimulus (see
    {!Mutsamp_synth.Mapping.set_inputs}). *)

type block
(** A block of sequences already executed over a set of mutants. *)

val run :
  t ->
  ?alive:int list ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_hdl.Sim.stimulus list array ->
  block
(** Execute up to {!lanes} sequences over the [alive] mutants (default:
    all), sharded over the [ctx] pool. Pure execution: it spends no
    budget, consults no chaos point and counts nothing — {!kills_in}
    does that, per sequence. Raises [Invalid_argument] on more than
    {!lanes} sequences, and {!Mutsamp_synth.Mapping.Mapping_error} on a
    malformed stimulus. *)

val kills_in :
  t -> block -> ?alive:int list -> ?ctx:Mutsamp_exec.Ctx.t -> int -> (int * int) list
(** [kills_in t b ?alive ?ctx k] is what [kills_at t ?alive ?ctx s]
    returns for the block's [k]-th sequence [s], with the same budget
    spending, chaos consultation and counters, read from [b]. [alive]
    must be a subset of the mutants [b] was run over. Callers that draw
    candidates in blocks replay their accept loop one sequence at a time
    through it. *)

val killed_set :
  t ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_hdl.Sim.stimulus list list ->
  bool array
(** For a whole test set (list of sequences), the per-mutant killed
    flags, with fault dropping across sequences. The sequences run in
    blocks of {!lanes}; the flags are then replayed sequence by
    sequence, so a budget cut leaves the flags a one-at-a-time pass
    would. [kill.sequences] counts the whole set even when a budget cut
    stops execution early. *)

(** Execution: with a pool in [?ctx] (default {!Mutsamp_exec.Ctx.default},
    sequential) the mutant population is sharded into contiguous chunks
    evaluated on worker domains — blocks are packed and the original's
    outputs computed once on the coordinator, each shard runs its
    mutants on its own scratch array, and results merge in population
    order. Without a pool one shard covers the whole population with the
    undivided budget.

    Budgets: each mutant·sequence check spends the sequence length in
    [Fsim_pairs] work units against the context budget (default:
    ambient; split evenly across shards and refunded after the join).
    Exhaustion stops the campaign early: unchecked mutants are reported
    alive (conservative mutation scores) and the degradation is recorded
    via {!Mutsamp_robust.Degrade}. The [Kill_run] chaos point is
    consulted on entry of every shard of {!kills_in}, {!kills_at} and
    {!killed_set}, inside the worker. *)
