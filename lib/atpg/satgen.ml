module Netlist = Mutsamp_netlist.Netlist
module Inject = Mutsamp_fault.Inject
module Equiv = Mutsamp_sat.Equiv

type result = Test of Mutsamp_fault.Pattern.t | Untestable

let generate ?budget nl fault =
  if Netlist.num_dffs nl > 0 then
    invalid_arg "Satgen.generate: sequential netlist (apply Scan.full_scan first)";
  let faulty = Inject.apply nl fault in
  match Equiv.check ?budget nl faulty with
  | Error e -> Error e
  | Ok Equiv.Equivalent -> Ok Untestable
  | Ok (Equiv.Counterexample bits) ->
    Ok (Test (Mutsamp_fault.Pattern.init ~inputs:(Array.length bits) (Array.get bits)))

