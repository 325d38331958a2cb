(** The static-analysis rule registry.

    Every diagnostic the engine can emit is an instance of a rule with
    a stable identifier ([HDL003], [NL001], [NL009], …). Identifiers
    never change meaning across releases: consumers key waivers and
    dashboards on them, so a retired rule's id (see {!retired}) is not
    reused. The full catalogue with remediation advice lives in
    [docs/ANALYSIS.md]. *)

type severity = Error | Warning | Info

type t = {
  id : string;  (** stable, e.g. ["NL001"] *)
  severity : severity;
  title : string;  (** one-line summary shown next to the id *)
}

val all : t list
(** The catalogue of active rules, sorted by id. *)

val find : string -> t option
(** Look an active rule up by (case-insensitive) id. *)

val retired : (string * string) list
(** Ids permanently out of service, with the reason. They are not in
    {!all}, can never fire, and are never reassigned — a waiver naming
    one is a configuration error. *)

val find_retired : string -> (string * string) option
(** Case-insensitive lookup in {!retired}. *)

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val severity_rank : severity -> int
(** [Error] ranks highest; used for sorting diagnostics. *)

(* Handles for the individual rules, so emitting code cannot typo an
   id. Grouped by analysis family. *)

val hdl_self_assign : t (* HDL001 *)
val hdl_never_read : t (* HDL002 *)
val hdl_never_written : t (* HDL003 *)
val hdl_dead_assign : t (* HDL004 *)
val hdl_unread_input : t (* HDL005 *)
val hdl_unassigned_output : t (* HDL006 *)
val hdl_constant_branch : t (* HDL007 *)

val nl_constant_net : t (* NL001 *)
val nl_dead_gate : t (* NL002 *)
val nl_unused_input : t (* NL003 *)
val nl_blocked_net : t (* NL004 *)
val nl_buffer_gate : t (* NL005 *)
val nl_duplicate_gate : t (* NL006 *)
val nl_reconvergent_hotspot : t (* NL007 *)
val nl_dominator_blocked : t (* NL008 *)
val nl_oversized_region : t (* NL009 *)
