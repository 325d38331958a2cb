(* The reference product-machine search, in the HDL interpreter: the
   oracle the library's search over compiled programs is checked
   against. A joint state is the two designs' register values
   ({!Sim.state}); from each state, in the order states were reached,
   the search tries every input code in order, and builds a code's
   stimulus the first time it tries it. It visits at most 65536 joint
   states and gives up on more than [max_bits] (default 12) input bits
   per cycle, in both cases with [Unknown]. The counterexample is a
   shortest distinguishing sequence. Raises [Invalid_argument] if the
   interfaces differ. *)

module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Equivalence = Mutsamp_mutation.Equivalence

let max_pairs = 65536

let product_bfs ?(max_bits = 12) a b =
  if not (Equivalence.same_interface a b) then
    invalid_arg "Sim_bfs.product_bfs: designs have different interfaces";
  let bits = Stimuli.input_bits a in
  if bits > max_bits then Equivalence.Unknown
  else begin
    let sim_a = Sim.create a and sim_b = Sim.create b in
    let joint () = (Sim.state sim_a, Sim.state sim_b) in
    let initial = joint () in
    let visited = Hashtbl.create 1024 in
    Hashtbl.replace visited initial ([] : Sim.stimulus list);
    let queue = Queue.create () in
    Queue.push initial queue;
    let stimuli = Array.make (1 lsl bits) None in
    let stimulus code =
      match stimuli.(code) with
      | Some stim -> stim
      | None ->
        let stim = Stimuli.of_code a code in
        stimuli.(code) <- Some stim;
        stim
    in
    let exception Found of Sim.stimulus list in
    let exception Budget in
    try
      while not (Queue.is_empty queue) do
        let ((state_a, state_b) as state) = Queue.pop queue in
        let path_rev = Hashtbl.find visited state in
        for code = 0 to (1 lsl bits) - 1 do
          let stim = stimulus code in
          Sim.set_state sim_a state_a;
          Sim.set_state sim_b state_b;
          let oa = Sim.step sim_a stim and ob = Sim.step sim_b stim in
          if not (Sim.outputs_equal oa ob) then
            raise (Found (List.rev (stim :: path_rev)));
          let next = joint () in
          if not (Hashtbl.mem visited next) then begin
            if Hashtbl.length visited >= max_pairs then raise Budget;
            Hashtbl.replace visited next (stim :: path_rev);
            Queue.push next queue
          end
        done
      done;
      Equivalence.Equivalent
    with
    | Found seq -> Equivalence.Distinguished seq
    | Budget -> Equivalence.Unknown
  end
