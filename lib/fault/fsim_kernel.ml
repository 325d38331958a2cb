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
let x_proofs = Metrics.counter "exec.fsim_proofs"
let x_proof_states = Metrics.counter "exec.fsim_proof_states"
let x_dropped = Metrics.counter "exec.fsim_untestable_dropped"
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

(* In-place transpose of a 32x32 bit block: bit [c] of [a.(r)] moves
   to bit [r] of [a.(c)]. Each round swaps the off-diagonal quarters
   of every 2j x 2j sub-block with one masked exchange per row pair. *)
let transpose32 (a : int array) =
  if Array.length a < 32 then
    invalid_arg "Fsim_kernel.transpose32: block < 32 words";
  let j = ref 16 and m = ref 0xFFFF in
  while !j > 0 do
    let jj = !j and mm = !m in
    let r = ref 0 in
    while !r < 32 do
      let x = Array.unsafe_get a !r and y = Array.unsafe_get a (!r + jj) in
      let t = ((x lsr jj) lxor y) land mm in
      Array.unsafe_set a !r (x lxor (t lsl jj));
      Array.unsafe_set a (!r + jj) (y lxor t);
      r := (!r + jj + 1) land lnot jj
    done;
    j := jj lsr 1;
    m := mm lxor (mm lsl !j)
  done

(* Scratch block for [pack_patterns]; one per shard. *)
let pack_scratch () = Array.make 32 0

(* Spread [len] <= 63 patterns over one word per input: lane [l] of
   [words.(k)] receives bit [k] of pattern [lo + l]. Word [j] of the
   patterns is a [len] x 63 bit matrix whose transpose is the lane
   words of inputs [63j .. 63j + 62]; it is transposed as up to four
   32x32 blocks in [scratch]. *)
let pack_patterns nl (patterns : Pattern.t array) lo len ~scratch words =
  let n_in = Array.length nl.Netlist.input_nets in
  for l = 0 to len - 1 do
    check_width nl "run" patterns.(lo + l)
  done;
  Array.fill words 0 n_in 0;
  for j = 0 to Packvec.words_for n_in - 1 do
    let base = j * Packvec.word_bits in
    let cols = min Packvec.word_bits (n_in - base) in
    for rb = 0 to (len - 1) / 32 do
      let r0 = 32 * rb in
      let rows = min 32 (len - r0) in
      for cb = 0 to (cols - 1) / 32 do
        let c0 = 32 * cb in
        for r = 0 to rows - 1 do
          scratch.(r) <-
            ((Packvec.words patterns.(lo + r0 + r)).(j) lsr c0) land 0xFFFF_FFFF
        done;
        Array.fill scratch rows (32 - rows) 0;
        transpose32 scratch;
        for c = 0 to min 32 (cols - c0) - 1 do
          let k = base + c0 + c in
          words.(k) <- words.(k) lor (scratch.(c) lsl r0)
        done
      done
    done
  done

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
