let word_bits = 63
let all_ones = -1

type t = {
  nl : Netlist.t;
  topo : Topo.t;
  values : int array;  (* one word per net *)
  state : int array;  (* flip-flop state, per net (unused for others) *)
}

type injection =
  | Net of int
  | Pin of { gate : int; pin : int }

let create nl =
  let n = Array.length nl.Netlist.gates in
  { nl; topo = Topo.compute nl; values = Array.make n 0; state = Array.make n 0 }

let reset t =
  Array.iter
    (fun q ->
      match t.nl.Netlist.gates.(q).Gate.kind with
      | Gate.Dff init -> t.state.(q) <- (if init then all_ones else 0)
      | _ -> assert false)
    t.nl.Netlist.dff_nets

let outputs t = Array.map (fun (_, net) -> t.values.(net)) t.nl.Netlist.output_list

(* One evaluation cycle with an optional fault injection. *)
let step_internal t inputs fault stuck =
  let gates = t.nl.Netlist.gates in
  if Array.length inputs <> Array.length t.nl.Netlist.input_nets then
    invalid_arg "Bitsim.step: input arity mismatch";
  let values = t.values in
  let forced_net =
    match fault with Some (Net n) -> n | Some (Pin _) | None -> -1
  in
  let pin_gate, pin_idx =
    match fault with Some (Pin { gate; pin }) -> (gate, pin) | Some (Net _) | None -> (-1, -1)
  in
  (* Sources: PIs, constants, flip-flop outputs. *)
  Array.iteri
    (fun k net -> values.(net) <- (if net = forced_net then stuck else inputs.(k)))
    t.nl.Netlist.input_nets;
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Const v ->
        values.(i) <- (if i = forced_net then stuck else if v then all_ones else 0)
      | Gate.Dff _ -> values.(i) <- (if i = forced_net then stuck else t.state.(i))
      | Gate.Pi _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
      | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
    gates;
  (* Combinational gates in topological order. *)
  Array.iter
    (fun i ->
      let g = gates.(i) in
      let fanins = g.Gate.fanins in
      let a = if i = pin_gate && pin_idx = 0 then stuck else values.(fanins.(0)) in
      let b =
        if Array.length fanins < 2 then 0
        else if i = pin_gate && pin_idx = 1 then stuck
        else values.(fanins.(1))
      in
      values.(i) <- (if i = forced_net then stuck else Gate.eval2 g.Gate.kind a b))
    t.topo.Topo.order;
  (* Advance flip-flops: D pins may themselves carry a pin fault. *)
  Array.iter
    (fun q ->
      t.state.(q) <-
        (if q = pin_gate && pin_idx = 0 then stuck
         else values.(gates.(q).Gate.fanins.(0))))
    t.nl.Netlist.dff_nets;
  outputs t

let step t inputs = step_internal t inputs None 0

let step_injected t inputs ~inj ~stuck = step_internal t inputs (Some inj) stuck

let net_values t = Array.copy t.values
let dff_states t = Array.map (fun q -> t.state.(q)) t.nl.Netlist.dff_nets
