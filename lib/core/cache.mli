(** Content hashes and payload codecs for the campaign store.

    The {!Mutsamp_store.Store} holds raw JSON; this module supplies the
    two halves the campaign layers need on top: canonical content
    hashes of pipeline inputs (the key parts — two runs agree on a key
    exactly when they agree on every hashed input) and lossless
    encode/decode pairs for the cached result types. Every hash goes
    through a canonical textual rendering ({!Mutsamp_hdl.Pretty} for
    designs, {!Mutsamp_netlist.Benchfmt} for netlists, the stable
    {!Mutsamp_obs.Json} printer for structured values), so values that
    compare equal hash equal.

    Decoders are total: any malformed, truncated or type-mismatched
    payload yields [None] — which {!Mutsamp_store.Store.fetch_or_compute}
    treats as a miss — never an exception. *)

module Json = Mutsamp_obs.Json

(** {2 Content hashes} *)

type hashes = {
  design_h : string;  (** behavioural source, via {!Mutsamp_hdl.Pretty} *)
  netlist_h : string;  (** synthesised netlist, via {!Mutsamp_netlist.Benchfmt} *)
  faults_h : string;  (** collapsed fault list, in order *)
}
(** The per-pipeline hash bundle; {!Pipeline.prepare} computes it
    lazily so store-less runs never pay for it. *)

val design_hash : Mutsamp_hdl.Ast.design -> string
val netlist_hash : Mutsamp_netlist.Netlist.t -> string
val faults_hash : Mutsamp_fault.Fault.t list -> string

val sequence_hash : Mutsamp_fault.Pattern.t array -> string
(** Pattern sequence, order- and width-sensitive. *)

val mutants_hash : Mutsamp_mutation.Mutant.t list -> string
(** Order-sensitive (cached outcomes index into the list). Covers each
    mutant's id, operator and mutated source. *)

val config_hash : Config.t -> string
val vector_config_hash : Mutsamp_validation.Vectorgen.config -> string
val int_list_hash : int list -> string
val test_set_hash : Mutsamp_hdl.Sim.stimulus list list -> string

val generator_name : Mutsamp_atpg.Topoff.generator -> string

(** {2 Codecs} *)

val int_list_to_json : int list -> Json.t
val int_list_of_json : Json.t -> int list option

val fsim_report_to_json : Mutsamp_fault.Fsim.report -> Json.t

val fsim_report_of_json :
  faults:Mutsamp_fault.Fault.t list ->
  Json.t ->
  Mutsamp_fault.Fsim.report option
(** The payload stores only per-fault first-detection indices; the
    fault values come from the caller's list (which the key's fault
    hash pins), re-paired positionally. [None] when the recorded total
    disagrees with the list length. *)

val outcome_to_json : Mutsamp_validation.Vectorgen.outcome -> Json.t

val outcome_of_json : Json.t -> Mutsamp_validation.Vectorgen.outcome option
(** [None] for payloads recorded from a degraded generation run
    ([degraded <> []]) — those must never satisfy an exact re-run. *)

val score_to_json : Mutsamp_validation.Score.t -> Json.t
val score_of_json : Json.t -> Mutsamp_validation.Score.t option

val topoff_report_to_json : Mutsamp_atpg.Topoff.report -> Json.t
val topoff_report_of_json : Json.t -> Mutsamp_atpg.Topoff.report option
(** [None] for degraded runs, like {!outcome_of_json}. *)
