let word_bits = 63
let all_ones = -1

type t = {
  nl : Netlist.t;
  topo : Topo.t;
  values : int array;  (* one word per net *)
  state : int array;  (* flip-flop state, per net (unused for others) *)
  (* Dense fault-forcing scratch for [step_multi]: per-net and per-pin
     masks live in preallocated arrays (pin slot = gate*2 + pin; gates
     have at most two fanins). Touched slots are remembered so clearing
     costs O(#injections), not O(#gates). *)
  net_mask : int array;
  net_forced : int array;
  pin_mask : int array;
  pin_force : int array;
  mutable touched_nets : int list;
  mutable touched_pins : int list;
}

type injection =
  | Net of int
  | Pin of { gate : int; pin : int }

let create nl =
  let n = Array.length nl.Netlist.gates in
  {
    nl;
    topo = Topo.compute nl;
    values = Array.make n 0;
    state = Array.make n 0;
    net_mask = Array.make n 0;
    net_forced = Array.make n 0;
    pin_mask = Array.make (2 * n) 0;
    pin_force = Array.make (2 * n) 0;
    touched_nets = [];
    touched_pins = [];
  }

let netlist t = t.nl

let reset t =
  Array.iter
    (fun q ->
      match t.nl.Netlist.gates.(q).Gate.kind with
      | Gate.Dff init -> t.state.(q) <- (if init then all_ones else 0)
      | _ -> assert false)
    t.nl.Netlist.dff_nets

let check_inputs t inputs op =
  if Array.length inputs <> Array.length t.nl.Netlist.input_nets then
    invalid_arg (Printf.sprintf "Bitsim.%s: input arity mismatch" op)

let outputs t = Array.map (fun (_, net) -> t.values.(net)) t.nl.Netlist.output_list

(* One evaluation cycle with an optional fault injection. *)
let step_internal t inputs fault stuck =
  let gates = t.nl.Netlist.gates in
  check_inputs t inputs "step";
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

type lane_injection = {
  inj : injection;
  lanes : int;
  stuck : int;
}

(* Merge one fault's lanes into a forcing slot. *)
let merge mask forced s lanes stuck =
  mask.(s) <- mask.(s) lor lanes;
  forced.(s) <- (forced.(s) land lnot lanes) lor (stuck land lanes)

(* [v] with the forced lanes of slot [s] overridden. *)
let force mask forced s v =
  let m = mask.(s) in
  if m = 0 then v else (v land lnot m) lor (forced.(s) land m)

(* Multi-fault evaluation: per-net and per-pin forcing masks are merged
   into the preallocated dense scratch arrays, then one pass applies
   [value = (v land ~mask) lor forced] wherever a mask is set. *)
let step_multi t inputs ~injections =
  let gates = t.nl.Netlist.gates in
  check_inputs t inputs "step_multi";
  let values = t.values and state = t.state in
  let net_mask = t.net_mask and net_forced = t.net_forced in
  let pin_mask = t.pin_mask and pin_force = t.pin_force in
  List.iter
    (fun { inj; lanes; stuck } ->
      match inj with
      | Net net ->
        if net_mask.(net) = 0 then t.touched_nets <- net :: t.touched_nets;
        merge net_mask net_forced net lanes stuck
      | Pin { gate; pin } ->
        let s = (2 * gate) + pin in
        if pin_mask.(s) = 0 then t.touched_pins <- s :: t.touched_pins;
        merge pin_mask pin_force s lanes stuck)
    injections;
  let input_nets = t.nl.Netlist.input_nets in
  for k = 0 to Array.length input_nets - 1 do
    let net = input_nets.(k) in
    values.(net) <- force net_mask net_forced net inputs.(k)
  done;
  for i = 0 to Array.length gates - 1 do
    match gates.(i).Gate.kind with
    | Gate.Const v ->
      values.(i) <- force net_mask net_forced i (if v then all_ones else 0)
    | Gate.Dff _ -> values.(i) <- force net_mask net_forced i state.(i)
    | Gate.Pi _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
    | Gate.Nor | Gate.Xor | Gate.Xnor -> ()
  done;
  let order = t.topo.Topo.order in
  for x = 0 to Array.length order - 1 do
    let i = order.(x) in
    let g = gates.(i) in
    let fanins = g.Gate.fanins in
    let a = force pin_mask pin_force (2 * i) values.(fanins.(0)) in
    let b =
      if Array.length fanins < 2 then 0
      else force pin_mask pin_force ((2 * i) + 1) values.(fanins.(1))
    in
    values.(i) <- force net_mask net_forced i (Gate.eval2 g.Gate.kind a b)
  done;
  let dffs = t.nl.Netlist.dff_nets in
  for k = 0 to Array.length dffs - 1 do
    let q = dffs.(k) in
    state.(q) <- force pin_mask pin_force (2 * q) values.(gates.(q).Gate.fanins.(0))
  done;
  List.iter
    (fun net ->
      net_mask.(net) <- 0;
      net_forced.(net) <- 0)
    t.touched_nets;
  List.iter
    (fun s ->
      pin_mask.(s) <- 0;
      pin_force.(s) <- 0)
    t.touched_pins;
  t.touched_nets <- [];
  t.touched_pins <- [];
  outputs t

let net_values t = Array.copy t.values
let net_word t net = t.values.(net)
let dff_states t = Array.map (fun q -> t.state.(q)) t.nl.Netlist.dff_nets

let load_state t words =
  let dffs = t.nl.Netlist.dff_nets in
  if Array.length words <> Array.length dffs then
    invalid_arg "Bitsim.load_state: state word count mismatch";
  Array.iteri (fun k q -> t.state.(q) <- words.(k)) dffs
