(* Scratch micro-bench for Bitsim.step_multi (parallel-fault path). *)
module Registry = Mutsamp_circuits.Registry
module Flow = Mutsamp_synth.Flow
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Prng = Mutsamp_util.Prng

let () =
  let entry = List.find (fun e -> e.Registry.name = "b09") Registry.all in
  let nl = Flow.synthesize (entry.Registry.design ()) in
  let faults = Fault.full_list nl in
  let prng = Prng.create 7 in
  let n_in = Array.length nl.Mutsamp_netlist.Netlist.input_nets in
  let sequence =
    Array.init 64 (fun _ ->
        Mutsamp_fault.Pattern.of_code ~inputs:n_in (Prng.int prng (1 lsl n_in)))
  in
  (* warmup *)
  ignore (Fsim.run nl ~faults ~sequence);
  let reps = 40 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Fsim.run nl ~faults ~sequence)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "b09 parallel-fault: %d faults, 64 cycles, %d reps: %.2f ms/run\n"
    (List.length faults) reps (1000. *. dt /. float_of_int reps)
