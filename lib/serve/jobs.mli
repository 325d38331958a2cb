(** Job bodies shared between the batch CLI and the service daemon.

    Each function returns the exact bytes the matching batch
    subcommand prints to stdout; the CLI prints the returned string
    and the daemon ships it as the reply's ["output"], so the two are
    bit-identical {e by construction}, never by convention. Typed
    failures (unknown circuit, unknown generator, budget cuts escaping a
    stage) raise {!Mutsamp_robust.Error.E} for the caller to contain.

    Prepared pipelines are cached per circuit in a process-global
    table ({!prepare}): deterministic front-end artifacts (parse,
    elaborate, synth, collapse, mutant enumeration) are computed once
    per daemon lifetime and reused across requests, counted under
    [serve.frontend_hits] / [serve.frontend_misses]. *)

module Json = Mutsamp_obs.Json
module Ctx = Mutsamp_exec.Ctx
module Pipeline = Mutsamp_core.Pipeline

val prepare : string -> Pipeline.t
(** Cached {!Mutsamp_core.Pipeline.prepare} keyed by registry circuit
    name. Raises [Error.E (Protocol _)] for an unknown circuit. *)

val frontend_hits : unit -> int
val frontend_misses : unit -> int

val faultsim :
  ctx:Ctx.t -> circuit:string -> vectors:int -> lfsr:bool -> seed:int -> string

val atpg : ctx:Ctx.t -> circuit:string -> generator:string -> seed:int -> string
(** [generator] is ["podem"] or ["sat"]. *)

val table1 : ctx:Ctx.t -> circuits:string list -> quick:bool -> seed:int -> string
(** Empty [circuits] defaults to the paper's benchmark set. *)

val table2 :
  ?equiv_progress:(name:string -> done_:int -> total:int -> unit) ->
  ctx:Ctx.t ->
  circuits:string list ->
  quick:bool ->
  seed:int ->
  repetitions:int ->
  unit ->
  string

val lint :
  ctx:Ctx.t -> circuits:string list -> strict:bool -> string * Json.t * int
(** [(text output, "analysis" report section, error count under
    [strict])]. Empty [circuits] lints the whole registry. *)

val exec_section : jobs_requested:int -> jobs:int -> Json.t
(** The run report's ["exec"] section: jobs asked for and used, the
    host's [cores] ([Domain.recommended_domain_count]) and [ocaml]
    version — the context that makes a jobs-N timing readable — and
    the [exec.*] histograms of the current metrics snapshot, if any. *)

val fsim_section : unit -> Json.t
(** The run report's ["fsim"] section, [{"resolved": [...]}]: the
    fault-sim backends ([compiled], [packed], [serial]) that ran under
    the current metrics snapshot, read off the [fsim.engine.*]
    counters. Empty when nothing was simulated (a warm store replay). *)

val robust_section : Mutsamp_robust.Budget.t -> Json.t
(** The run report's ["robust"] section: the degradation record
    ({!Mutsamp_robust.Degrade.to_json}) plus the [budget] the run was
    given. *)
