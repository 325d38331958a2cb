type value = int * int

let all = Bitsim.all_ones

type t = {
  nl : Netlist.t;
  topo : Topo.t;
  zeros : int array;  (* per net: lanes known 0 *)
  ones : int array;  (* per net: lanes known 1 *)
  state_zeros : int array;  (* per net, flip-flops only *)
  state_ones : int array;
}

let x : value = (0, 0)
let known word = (lnot word land all, word land all)

let create nl =
  let n = Array.length nl.Netlist.gates in
  {
    nl;
    topo = Topo.compute nl;
    zeros = Array.make n 0;
    ones = Array.make n 0;
    state_zeros = Array.make n 0;
    state_ones = Array.make n 0;
  }

let reset t =
  Array.iter
    (fun q ->
      match t.nl.Netlist.gates.(q).Gate.kind with
      | Gate.Dff init ->
        t.state_zeros.(q) <- (if init then 0 else all);
        t.state_ones.(q) <- (if init then all else 0)
      | _ -> assert false)
    t.nl.Netlist.dff_nets

let reset_to_x t =
  Array.iter
    (fun q ->
      t.state_zeros.(q) <- 0;
      t.state_ones.(q) <- 0)
    t.nl.Netlist.dff_nets

(* Ternary gate evaluation on (zeros, ones) masks. *)
let eval kind (a0, a1) (b0, b1) =
  match kind with
  | Gate.Buf -> (a0, a1)
  | Gate.Not -> (a1, a0)
  | Gate.And -> (a0 lor b0, a1 land b1)
  | Gate.Nand -> (a1 land b1, a0 lor b0)
  | Gate.Or -> (a0 land b0, a1 lor b1)
  | Gate.Nor -> (a1 lor b1, a0 land b0)
  | Gate.Xor -> ((a0 land b0) lor (a1 land b1), (a0 land b1) lor (a1 land b0))
  | Gate.Xnor -> ((a0 land b1) lor (a1 land b0), (a0 land b0) lor (a1 land b1))
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> invalid_arg "Xsim.eval: not combinational"

let check_value (z, o) =
  if z land o <> 0 then invalid_arg "Xsim: lane marked both 0 and 1"

let step t inputs =
  if Array.length inputs <> Array.length t.nl.Netlist.input_nets then
    invalid_arg "Xsim.step: input arity mismatch";
  Array.iter check_value inputs;
  Array.iteri
    (fun k net ->
      let z, o = inputs.(k) in
      t.zeros.(net) <- z;
      t.ones.(net) <- o)
    t.nl.Netlist.input_nets;
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Const v ->
        t.zeros.(i) <- (if v then 0 else all);
        t.ones.(i) <- (if v then all else 0)
      | Gate.Dff _ ->
        t.zeros.(i) <- t.state_zeros.(i);
        t.ones.(i) <- t.state_ones.(i)
      | Gate.Pi _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
      | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
    t.nl.Netlist.gates;
  Array.iter
    (fun i ->
      let g = t.nl.Netlist.gates.(i) in
      let a = (t.zeros.(g.Gate.fanins.(0)), t.ones.(g.Gate.fanins.(0))) in
      let b =
        if Array.length g.Gate.fanins > 1 then
          (t.zeros.(g.Gate.fanins.(1)), t.ones.(g.Gate.fanins.(1)))
        else (0, 0)
      in
      let z, o = eval g.Gate.kind a b in
      t.zeros.(i) <- z;
      t.ones.(i) <- o)
    t.topo.Topo.order;
  Array.iter
    (fun q ->
      let d = t.nl.Netlist.gates.(q).Gate.fanins.(0) in
      t.state_zeros.(q) <- t.zeros.(d);
      t.state_ones.(q) <- t.ones.(d))
    t.nl.Netlist.dff_nets;
  Array.map (fun (_, net) -> (t.zeros.(net), t.ones.(net))) t.nl.Netlist.output_list

let step_known t words = step t (Array.map known words)

let unknown_dff_lanes t =
  Array.fold_left
    (fun acc q ->
      let unknown = lnot (t.state_zeros.(q) lor t.state_ones.(q)) land all in
      let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
      acc + popcount unknown)
    0 t.nl.Netlist.dff_nets

let synchronizing_length nl ~sequence =
  let t = create nl in
  reset_to_x t;
  let n_in = Array.length nl.Netlist.input_nets in
  let fully_known () =
    Array.for_all
      (fun q -> (t.state_zeros.(q) lor t.state_ones.(q)) land 1 = 1)
      nl.Netlist.dff_nets
  in
  if Array.length nl.Netlist.dff_nets = 0 then Some 0
  else begin
    let rec apply c =
      if fully_known () then Some c
      else if c >= Array.length sequence then None
      else begin
        let code = sequence.(c) in
        let words = Array.init n_in (fun k -> if (code lsr k) land 1 = 1 then all else 0) in
        ignore (step_known t words);
        apply (c + 1)
      end
    in
    apply 0
  end
