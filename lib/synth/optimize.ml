(* Aggregated across every sweep in the run (mutant synthesis
   included) — the run report's measure of how much dead logic the
   clean-up removes. *)
let c_sweep_removed = Mutsamp_obs.Metrics.counter "analysis.sweep.removed_gates"

let sweep_stats nl =
  let cleaned, removed = Mutsamp_netlist.Sweep.run nl in
  Mutsamp_obs.Metrics.add c_sweep_removed removed;
  (cleaned, removed)

let sweep nl = fst (sweep_stats nl)
