module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Fault = Mutsamp_fault.Fault
module Fsim_kernel = Mutsamp_fault.Fsim_kernel
module Packvec = Mutsamp_util.Packvec

type signature = int

let misr_step ~width ~taps signature response =
  let fb =
    List.fold_left (fun acc tap -> acc lxor ((signature lsr (tap - 1)) land 1)) 0 taps
  in
  (((signature lsl 1) lor fb) lxor response) land ((1 lsl width) - 1)

let misr_signature ~width ~taps responses =
  List.fold_left (fun s r -> misr_step ~width ~taps s r) 0 responses

(* A response wider than one word is absorbed word by word (one MISR
   clock each); responses of ≤ 63 outputs behave exactly like the
   plain int fold. *)
let misr_absorb ~width ~taps signature (response : Packvec.t) =
  Array.fold_left (fun s w -> misr_step ~width ~taps s w) signature response.Packvec.words

let misr_fold ~width ~taps responses =
  List.fold_left (fun s r -> misr_absorb ~width ~taps s r) 0 responses

type report = {
  patterns : int;
  good_signature : signature;
  signature_detected : int;
  comparison_detected : int;
  aliased : int;
  total_faults : int;
}

let misr_width = 16

let run nl ~faults ~seed ~length =
  if Netlist.num_dffs nl > 0 then
    invalid_arg "Bist.run: sequential netlist (apply Scan.full_scan first)";
  let bits = Array.length nl.Netlist.input_nets in
  let n_out = Array.length nl.Netlist.output_list in
  let patterns =
    if bits >= 2 && bits <= Prpg.max_lfsr_width then
      Array.map
        (Packvec.of_code ~width:bits)
        (Prpg.lfsr_sequence ~width:bits ~seed ~length)
    else Prpg.uniform_sequence (Mutsamp_util.Prng.create seed) ~bits ~length
  in
  let taps = Prpg.lfsr_taps misr_width in
  let sim = Bitsim.create nl in
  let words_of p = Fsim_kernel.replicate_pattern nl p in
  let response outs = Packvec.init n_out (fun k -> outs.(k) land 1 = 1) in
  let good_responses =
    Array.to_list (Array.map (fun p -> response (Bitsim.step sim (words_of p))) patterns)
  in
  let good_signature = misr_fold ~width:misr_width ~taps good_responses in
  let signature_detected = ref 0 in
  let comparison_detected = ref 0 in
  let aliased = ref 0 in
  List.iter
    (fun f ->
      let inj = Fault.injection f and stuck = Fault.stuck_word f in
      let faulty_responses =
        Array.to_list
          (Array.map
             (fun p -> response (Bitsim.step_injected sim (words_of p) ~inj ~stuck))
             patterns)
      in
      let differs = not (List.equal Packvec.equal faulty_responses good_responses) in
      let sig_differs =
        misr_fold ~width:misr_width ~taps faulty_responses <> good_signature
      in
      if differs then incr comparison_detected;
      if sig_differs then incr signature_detected;
      if differs && not sig_differs then incr aliased)
    faults;
  {
    patterns = length;
    good_signature;
    signature_detected = !signature_detected;
    comparison_detected = !comparison_detected;
    aliased = !aliased;
    total_faults = List.length faults;
  }
