(** One diagnostic: a rule instance anchored to a location.

    [loc] is a short stable anchor used by waivers ([--waive RULEID:LOC]):
    the signal name for HDL findings, ["net<N>"] for netlist findings.
    [message] carries the full human-readable explanation. *)

type t = {
  rule : Rule.t;
  circuit : string;
  loc : string;
  message : string;
  waived : bool;
}

val make : rule:Rule.t -> circuit:string -> loc:string -> message:string -> t
(** Not waived; waiving is applied later by {!Engine}. *)

val to_string : t -> string
(** ["circuit: RULEID severity [loc] message"], with a ["(waived)"]
    suffix when waived. *)

val to_json : t -> Mutsamp_obs.Json.t

val compare : t -> t -> int
(** Severity (descending), then circuit, rule id, loc, message. *)
