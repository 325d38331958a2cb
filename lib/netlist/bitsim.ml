let word_bits = 63
let all_ones = -1

type t = {
  nl : Netlist.t;
  topo : Topo.t;
  nw : int;  (* words per net *)
  values : int array;  (* net i, word j at [i*nw + j] *)
  state : int array;  (* flip-flop state, same layout (unused for others) *)
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

let create ?(lanes = word_bits) nl =
  if lanes < 1 then invalid_arg "Bitsim.create: lanes < 1";
  let nw = (lanes + word_bits - 1) / word_bits in
  let n = Array.length nl.Netlist.gates in
  {
    nl;
    topo = Topo.compute nl;
    nw;
    values = Array.make (n * nw) 0;
    state = Array.make (n * nw) 0;
    net_mask = Array.make (n * nw) 0;
    net_forced = Array.make (n * nw) 0;
    pin_mask = Array.make (2 * n * nw) 0;
    pin_force = Array.make (2 * n * nw) 0;
    touched_nets = [];
    touched_pins = [];
  }

let netlist t = t.nl
let lanes t = t.nw * word_bits
let words_per_net t = t.nw

let reset t =
  Array.iter
    (fun q ->
      match t.nl.Netlist.gates.(q).Gate.kind with
      | Gate.Dff init ->
        Array.fill t.state (q * t.nw) t.nw (if init then all_ones else 0)
      | _ -> assert false)
    t.nl.Netlist.dff_nets

let check_inputs t inputs op =
  if Array.length inputs <> Array.length t.nl.Netlist.input_nets * t.nw then
    invalid_arg (Printf.sprintf "Bitsim.%s: input arity mismatch" op)

let outputs t =
  let nw = t.nw in
  let outs = t.nl.Netlist.output_list in
  let r = Array.make (Array.length outs * nw) 0 in
  Array.iteri
    (fun o (_, net) -> Array.blit t.values (net * nw) r (o * nw) nw)
    outs;
  r

(* One evaluation cycle with an optional fault injection. *)
let step_internal t inputs fault stuck =
  let gates = t.nl.Netlist.gates in
  check_inputs t inputs "step";
  let nw = t.nw in
  let forced_net =
    match fault with Some (Net n) -> n | Some (Pin _) | None -> -1
  in
  let pin_gate, pin_idx =
    match fault with Some (Pin { gate; pin }) -> (gate, pin) | Some (Net _) | None -> (-1, -1)
  in
  (* Sources: PIs, constants, flip-flop outputs. *)
  Array.iteri
    (fun k net ->
      if net = forced_net then Array.fill t.values (net * nw) nw stuck
      else Array.blit inputs (k * nw) t.values (net * nw) nw)
    t.nl.Netlist.input_nets;
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Const v ->
        let w = if i = forced_net then stuck else if v then all_ones else 0 in
        Array.fill t.values (i * nw) nw w
      | Gate.Dff _ ->
        if i = forced_net then Array.fill t.values (i * nw) nw stuck
        else Array.blit t.state (i * nw) t.values (i * nw) nw
      | Gate.Pi _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
      | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
    gates;
  (* Combinational gates in topological order. *)
  Array.iter
    (fun i ->
      let g = gates.(i) in
      let kind = g.Gate.kind in
      let f0 = g.Gate.fanins.(0) in
      let two = Array.length g.Gate.fanins > 1 in
      let f1 = if two then g.Gate.fanins.(1) else 0 in
      let forced = i = forced_net in
      for j = 0 to nw - 1 do
        let a =
          if i = pin_gate && pin_idx = 0 then stuck else t.values.((f0 * nw) + j)
        in
        let b =
          if not two then 0
          else if i = pin_gate && pin_idx = 1 then stuck
          else t.values.((f1 * nw) + j)
        in
        t.values.((i * nw) + j) <- (if forced then stuck else Gate.eval2 kind a b)
      done)
    t.topo.Topo.order;
  (* Advance flip-flops: D pins may themselves carry a pin fault. *)
  Array.iter
    (fun q ->
      let d = gates.(q).Gate.fanins.(0) in
      if q = pin_gate && pin_idx = 0 then Array.fill t.state (q * nw) nw stuck
      else Array.blit t.values (d * nw) t.state (q * nw) nw)
    t.nl.Netlist.dff_nets;
  outputs t

let step t inputs = step_internal t inputs None 0

let step_with_fault t inputs ~fault_net ~stuck_value =
  step_internal t inputs (Some (Net fault_net)) stuck_value

let step_injected t inputs ~inj ~stuck = step_internal t inputs (Some inj) stuck

type lane_injection = {
  inj : injection;
  lanes : int array;
  stuck : int;
}

(* Multi-fault evaluation: per-net and per-pin forcing masks are merged
   into the preallocated dense scratch arrays, then one pass applies
   [value = (v land ~mask) lor forced] wherever a mask is set. *)
let step_multi t inputs ~injections =
  let gates = t.nl.Netlist.gates in
  check_inputs t inputs "step_multi";
  let nw = t.nw in
  let net_mask = t.net_mask and net_forced = t.net_forced in
  let pin_mask = t.pin_mask and pin_force = t.pin_force in
  List.iter
    (fun { inj; lanes; stuck } ->
      if Array.length lanes <> nw then
        invalid_arg "Bitsim.step_multi: lane-mask word count mismatch";
      let merge mask forced base =
        for j = 0 to nw - 1 do
          let l = lanes.(j) in
          if l <> 0 then begin
            mask.(base + j) <- mask.(base + j) lor l;
            forced.(base + j) <-
              (forced.(base + j) land lnot l) lor (stuck land l)
          end
        done
      in
      match inj with
      | Net net ->
        if net_mask.(net * nw) = 0 then t.touched_nets <- net :: t.touched_nets;
        merge net_mask net_forced (net * nw)
      | Pin { gate; pin } ->
        let s = (2 * gate) + pin in
        if pin_mask.(s * nw) = 0 then t.touched_pins <- s :: t.touched_pins;
        merge pin_mask pin_force (s * nw))
    injections;
  let force_net net j v =
    let m = net_mask.((net * nw) + j) in
    if m = 0 then v else (v land lnot m) lor (net_forced.((net * nw) + j) land m)
  in
  Array.iteri
    (fun k net ->
      for j = 0 to nw - 1 do
        t.values.((net * nw) + j) <- force_net net j inputs.((k * nw) + j)
      done)
    t.nl.Netlist.input_nets;
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Const v ->
        let w = if v then all_ones else 0 in
        for j = 0 to nw - 1 do
          t.values.((i * nw) + j) <- force_net i j w
        done
      | Gate.Dff _ ->
        for j = 0 to nw - 1 do
          t.values.((i * nw) + j) <- force_net i j t.state.((i * nw) + j)
        done
      | Gate.Pi _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
      | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
    gates;
  Array.iter
    (fun i ->
      let g = gates.(i) in
      let kind = g.Gate.kind in
      let f0 = g.Gate.fanins.(0) in
      let two = Array.length g.Gate.fanins > 1 in
      let f1 = if two then g.Gate.fanins.(1) else 0 in
      let s0 = ((2 * i) + 0) * nw and s1 = ((2 * i) + 1) * nw in
      for j = 0 to nw - 1 do
        let a =
          let v = t.values.((f0 * nw) + j) in
          let m = pin_mask.(s0 + j) in
          if m = 0 then v else (v land lnot m) lor (pin_force.(s0 + j) land m)
        in
        let b =
          if not two then 0
          else begin
            let v = t.values.((f1 * nw) + j) in
            let m = pin_mask.(s1 + j) in
            if m = 0 then v else (v land lnot m) lor (pin_force.(s1 + j) land m)
          end
        in
        t.values.((i * nw) + j) <- force_net i j (Gate.eval2 kind a b)
      done)
    t.topo.Topo.order;
  Array.iter
    (fun q ->
      let d = gates.(q).Gate.fanins.(0) in
      let s = 2 * q * nw in
      for j = 0 to nw - 1 do
        let v = t.values.((d * nw) + j) in
        let m = pin_mask.(s + j) in
        t.state.((q * nw) + j) <-
          (if m = 0 then v else (v land lnot m) lor (pin_force.(s + j) land m))
      done)
    t.nl.Netlist.dff_nets;
  List.iter
    (fun net ->
      Array.fill net_mask (net * nw) nw 0;
      Array.fill net_forced (net * nw) nw 0)
    t.touched_nets;
  List.iter
    (fun s ->
      Array.fill pin_mask (s * nw) nw 0;
      Array.fill pin_force (s * nw) nw 0)
    t.touched_pins;
  t.touched_nets <- [];
  t.touched_pins <- [];
  outputs t

let net_values t = Array.copy t.values
let net_word t net j = t.values.((net * t.nw) + j)

let dff_states t =
  let nw = t.nw in
  let dffs = t.nl.Netlist.dff_nets in
  let r = Array.make (Array.length dffs * nw) 0 in
  Array.iteri (fun k q -> Array.blit t.state (q * nw) r (k * nw) nw) dffs;
  r

let load_state t words =
  let nw = t.nw in
  let dffs = t.nl.Netlist.dff_nets in
  if Array.length words <> Array.length dffs * nw then
    invalid_arg "Bitsim.load_state: state word count mismatch";
  Array.iteri (fun k q -> Array.blit words (k * nw) t.state (q * nw) nw) dffs
