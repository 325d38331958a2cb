(** Mutant execution: decide which mutants a test sequence kills.

    A mutant is killed by a sequence when, applying the sequence from
    reset to both the original design and the mutant, at least one
    output differs in at least one cycle. Simulators are compiled once
    per mutant and reused across candidate sequences. *)

type t
(** A runner holding the original design and a mutant population. *)

val make : Mutsamp_hdl.Ast.design -> Mutant.t list -> t
(** Compile the original and every mutant. *)

val original : t -> Mutsamp_hdl.Ast.design
val mutants : t -> Mutant.t list
val size : t -> int

val kills_at :
  t ->
  ?alive:int list ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_hdl.Sim.stimulus list ->
  (int * int) list
(** The mutants killed by the sequence, restricted to [alive] (default:
    the whole population), in candidate order, each with the 0-based
    cycle of its first differing output — so callers can truncate the
    sequence after its last useful cycle. Simulation of a mutant stops
    at that cycle. [List.map fst] gives the killed indices. *)

val killed_set :
  t ->
  ?ctx:Mutsamp_exec.Ctx.t ->
  Mutsamp_hdl.Sim.stimulus list list ->
  bool array
(** For a whole test set (list of sequences), the per-mutant killed
    flags, with fault dropping across sequences. The reference outputs
    of every sequence are replayed up front, so [kill.sequences] counts
    the whole set even when a budget cut stops execution early. *)

(** Execution: with a pool in [?ctx] (default {!Mutsamp_exec.Ctx.default},
    sequential) the mutant population is sharded into contiguous chunks
    evaluated on worker domains — reference outputs are replayed once on
    the coordinator, each mutant's compiled simulator belongs to exactly
    one shard, and results merge in population order. Without a pool
    one shard covers the whole population with the undivided budget.

    Budgets: each mutant·sequence check spends the sequence length in
    [Fsim_pairs] work units against the context budget (default:
    ambient; split evenly across shards and refunded after the join).
    Exhaustion stops the campaign early: unchecked mutants are reported
    alive (conservative mutation scores) and the degradation is recorded
    via {!Mutsamp_robust.Degrade}. The [Kill_run] chaos point is
    consulted on entry of every shard, inside the worker. *)
