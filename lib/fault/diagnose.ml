module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Packvec = Mutsamp_util.Packvec

type observation = { pattern : Pattern.t; response : Packvec.t }

type verdict = { fault : Fault.t; matches : int; explains : bool }

(* Lane 0 of every output word, packed output-index-first. *)
let response_of_outputs outs =
  Packvec.init (Array.length outs) (fun k -> outs.(k) land 1 = 1)

let simulate_response nl fault p =
  let sim = Bitsim.create nl in
  let words = Fsim_kernel.replicate_pattern nl p in
  let outs =
    match fault with
    | None -> Bitsim.step sim words
    | Some f ->
      Bitsim.step_injected sim words ~inj:(Fault.injection f) ~stuck:(Fault.stuck_word f)
  in
  response_of_outputs outs

let rank nl ~candidates ~observations =
  if observations = [] then invalid_arg "Diagnose.rank: no observations";
  if Netlist.num_dffs nl > 0 then invalid_arg "Diagnose.rank: sequential netlist";
  let sim = Bitsim.create nl in
  let n_obs = List.length observations in
  let verdicts =
    List.map
      (fun f ->
        let matches =
          List.fold_left
            (fun acc { pattern; response } ->
              let outs =
                Bitsim.step_injected sim (Fsim_kernel.replicate_pattern nl pattern)
                  ~inj:(Fault.injection f) ~stuck:(Fault.stuck_word f)
              in
              if Packvec.equal (response_of_outputs outs) response then acc + 1 else acc)
            0 observations
        in
        { fault = f; matches; explains = matches = n_obs })
      candidates
  in
  List.stable_sort (fun a b -> compare b.matches a.matches) verdicts

let perfect_matches nl ~candidates ~observations =
  rank nl ~candidates ~observations
  |> List.filter (fun v -> v.explains)
  |> List.map (fun v -> v.fault)

type dictionary = {
  dict_patterns : Pattern.t array;
  entries : (Fault.t * Packvec.t array) array;  (* fault, response per pattern *)
}

let build nl ~candidates ~patterns =
  if Netlist.num_dffs nl > 0 then invalid_arg "Diagnose.build: sequential netlist";
  let sim = Bitsim.create nl in
  let entries =
    Array.of_list
      (List.map
         (fun f ->
           let responses =
             Array.map
               (fun p ->
                 let outs =
                   Bitsim.step_injected sim (Fsim_kernel.replicate_pattern nl p)
                     ~inj:(Fault.injection f) ~stuck:(Fault.stuck_word f)
                 in
                 response_of_outputs outs)
               patterns
           in
           (f, responses))
         candidates)
  in
  { dict_patterns = Array.map Pattern.copy patterns; entries }

let lookup d ~responses =
  if Array.length responses <> Array.length d.dict_patterns then
    invalid_arg "Diagnose.lookup: response count does not match dictionary";
  Array.to_list d.entries
  |> List.filter_map (fun (f, stored) ->
         if Array.for_all2 Packvec.equal stored responses then Some f else None)
