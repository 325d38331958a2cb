type severity = Error | Warning | Info

type t = {
  id : string;
  severity : severity;
  title : string;
}

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"
let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

let mk id severity title = { id; severity; title }

let hdl_self_assign = mk "HDL001" Warning "self-assignment"
let hdl_never_read = mk "HDL002" Warning "signal written but never read"
let hdl_never_written = mk "HDL003" Warning "signal declared but never written"
let hdl_dead_assign = mk "HDL004" Warning "dead assignment"
let hdl_unread_input = mk "HDL005" Warning "input never read"
let hdl_unassigned_output = mk "HDL006" Error "output never assigned"
let hdl_constant_branch = mk "HDL007" Warning "branch condition is constant"

let nl_constant_net = mk "NL001" Warning "net provably constant"
let nl_dead_gate = mk "NL002" Warning "gate unreachable from any output"
let nl_unused_input = mk "NL003" Warning "primary input drives nothing"
let nl_blocked_net = mk "NL004" Warning "net cannot influence any output"
let nl_buffer_gate = mk "NL005" Info "redundant buffer gate"
let nl_duplicate_gate = mk "NL006" Info "structurally duplicate gate"
let nl_reconvergent_hotspot = mk "NL007" Info "reconvergent fanout hotspot"

let nl_dominator_blocked =
  mk "NL008" Warning "net blocked by conflicting dominator side inputs"

let nl_oversized_region = mk "NL009" Info "oversized fanout-free region"

(* Retired ids keep their meaning reserved forever: a waiver naming one
   is a configuration error (the rule can never fire again), not a
   silent no-op, and the id is never reassigned. *)
let retired =
  [
    ( "ATP001",
      "never emitted as a diagnostic; constant nets, whose stuck-at \
       faults are unexcitable, are reported by NL001" );
    ( "ATP002",
      "never emitted as a diagnostic; blocked nets, whose stuck-at \
       faults are unobservable, are reported by NL004 and NL008" );
    ( "MUT001",
      "static mutant triage was removed; stillborn (equivalent) mutants \
       are settled by the exact equivalence check" );
    ( "MUT002",
      "static mutant triage was removed; duplicate mutants are killed or \
       proved equivalent one by one like any other mutant" );
  ]

let all =
  List.sort (fun a b -> compare a.id b.id)
  [
    hdl_self_assign; hdl_never_read; hdl_never_written; hdl_dead_assign;
    hdl_unread_input; hdl_unassigned_output; hdl_constant_branch;
    nl_constant_net; nl_dead_gate; nl_unused_input; nl_blocked_net;
    nl_buffer_gate; nl_duplicate_gate;
    nl_reconvergent_hotspot; nl_dominator_blocked; nl_oversized_region;
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun r -> r.id = id) all

let find_retired id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun (rid, _) -> rid = id) retired
