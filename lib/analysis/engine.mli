(** Orchestration: waivers, severity policy, metrics, report section.

    The engine is what the [mutsamp lint] subcommand (and the test
    suite) drives: it runs the HDL and netlist passes, marks findings
    matched by a waiver, bumps the [analysis.*] counters, and renders
    the ["analysis"] section of the schema-1 run report. *)

type waiver = { rule_id : string; loc : string }
(** [loc = "*"] waives the rule everywhere; otherwise the diagnostic's
    loc must match exactly. *)

val waiver_of_string : string -> (waiver, string) result
(** Parses ["RULEID:LOC"] (["RULEID"] alone means ["RULEID:*"]);
    rejects unknown rule ids, and retired ids with a distinct message
    naming the retirement reason — a waiver that can never match
    anything is a configuration error, not a silent no-op. *)

type options = {
  waivers : waiver list;
  strict : bool;  (** treat warnings as errors for {!error_count} *)
  check_observability : bool;  (** run the quadratic NL004 pass *)
}

val default_options : options

val lint_design :
  options -> circuit:string -> Mutsamp_hdl.Ast.design -> Diag.t list
(** HDL pass, waivers applied, sorted, counters bumped. *)

val lint_netlist :
  options -> circuit:string -> Mutsamp_netlist.Netlist.t -> Diag.t list

val apply_waivers : waiver list -> Diag.t list -> Diag.t list

val error_count : strict:bool -> Diag.t list -> int
(** Unwaived findings at error severity (strict: warning too) — the
    CLI exits nonzero when positive. *)

val summary : Diag.t list -> (string * int) list
(** [("findings", _); ("errors", _); ("warnings", _); ("infos", _);
    ("waived", _)] over unwaived (waived for the last) findings. *)

val report_section : Diag.t list -> Mutsamp_obs.Json.t
(** The ["analysis"] report object: the summary counts, per-rule
    counts, and the full diagnostic list. *)
