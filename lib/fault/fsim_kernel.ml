(* Shared spine of the fault-simulation backends: report types, metric
   series, pattern packing and the chaos/degrade conventions. Every
   backend (compiled, packed, serial reference) builds on these so
   their observable behaviour — budget charging, degrade notes,
   detection indexing — stays aligned by construction. *)

module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Packvec = Mutsamp_util.Packvec
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade

(* Observability series (no-ops unless metrics collection is on).

   Convention: [fsim.*] series describe the logical workload — counted
   by the coordinator, or per fault where the count is independent of
   how the fault array was sharded — so their totals are identical
   whatever the job count. [exec.*] series describe physical execution
   (batches, good-circuit re-simulation, lane occupancy, events
   elided), which legitimately varies with sharding and is therefore
   excluded from the cross-jobs determinism guarantee. *)
let c_runs = Metrics.counter "fsim.runs"
let c_patterns = Metrics.counter "fsim.patterns_simulated"
let c_detected = Metrics.counter "fsim.faults_detected"
let c_machine_steps = Metrics.counter "fsim.machine_steps"
let c_shards = Metrics.counter "exec.fsim_shards"
let x_batches = Metrics.counter "exec.fsim_batches"
let x_good_steps = Metrics.counter "exec.fsim_good_steps"
let x_fault_groups = Metrics.counter "exec.fsim_fault_groups"
let x_machine_steps = Metrics.counter "exec.fsim_machine_steps"
let x_events_skipped = Metrics.counter "exec.events_skipped"
let x_compile_ms = Metrics.counter "exec.compile_ms"
let h_lanes_per_step = Metrics.histogram "exec.fsim_lanes_per_step"

(* Resolved-engine observability: one counter per backend name, bumped
   once per run (the registry holds no string gauges). *)
let c_engine_packed = Metrics.counter "fsim.engine.packed"
let c_engine_compiled = Metrics.counter "fsim.engine.compiled"
let c_engine_serial = Metrics.counter "fsim.engine.serial"

type detection = { fault : Fault.t; detected_at : int option }

type report = {
  total : int;
  detected : int;
  detections : detection array;
  patterns_applied : int;
}

let count_detected detections =
  Array.fold_left
    (fun acc d -> match d.detected_at with Some _ -> acc + 1 | None -> acc)
    0 detections

let check_width nl op (p : Pattern.t) =
  if Packvec.width p <> Array.length nl.Netlist.input_nets then
    invalid_arg
      (Printf.sprintf "Fsim.%s: pattern width %d does not match %d inputs" op
         (Packvec.width p) (Array.length nl.Netlist.input_nets))

(* Spread [len] patterns over one word per input: lane [l] of input
   [k] receives bit [k] of pattern [lo + l]. *)
let pack_patterns nl (patterns : Pattern.t array) lo len =
  let n_in = Array.length nl.Netlist.input_nets in
  let words = Array.make n_in 0 in
  for l = 0 to len - 1 do
    let p = patterns.(lo + l) in
    check_width nl "run" p;
    let bit = 1 lsl l in
    for k = 0 to n_in - 1 do
      if Packvec.get p k then words.(k) <- words.(k) lor bit
    done
  done;
  words

(* One word per input with every lane carrying the same pattern. *)
let replicate_pattern nl (p : Pattern.t) =
  check_width nl "replicate" p;
  let n_in = Array.length nl.Netlist.input_nets in
  let words = Array.make n_in 0 in
  for k = 0 to n_in - 1 do
    if Packvec.get p k then words.(k) <- Bitsim.all_ones
  done;
  words

(* Mask of the valid lanes when only the low [len] are in use. *)
let word_lane_mask len =
  if len >= Bitsim.word_bits then -1 else (1 lsl len) - 1

let lowest_bit w =
  let rec go k = if (w lsr k) land 1 = 1 then k else go (k + 1) in
  go 0

(* Entry-point chaos consultation shared by the backends; consulted by
   every shard, so injections fire inside workers too. [Timeout]
   behaves like an exhausted budget (the run degrades to a partial
   report); [Exception] raises to prove caller containment; [Truncate]
   is meaningless for simulation and ignored. *)
let chaos_entry () =
  match Chaos.fire Chaos.Fsim_run with
  | Some Chaos.Timeout -> Some (Rerror.Timeout Rerror.Fsim)
  | Some Chaos.Exception ->
    raise (Chaos.Injected "chaos: injected exception at fsim")
  | Some (Chaos.Truncate _) | None -> None

let note_cut ~detail = function
  | None -> ()
  | Some e -> Degrade.note ~stage:Rerror.Fsim ~detail e

let batch_cut_detail =
  "fault simulation cut short; remaining faults reported undetected"

let serial_cut_detail =
  "serial fault simulation cut short; remaining faults reported undetected"

let parallel_cut_detail =
  "parallel-fault simulation cut short; remaining faults reported undetected"
