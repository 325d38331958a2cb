(* Levelized view of a netlist for the compiled fault simulator:
   combinational gates in level order and dense int-array fanouts.
   Everything here is immutable after [compute], so one value can be
   shared across simulation domains. *)

type t = {
  nl : Netlist.t;
  order : int array;  (* combinational gates, level-ascending *)
  fanout_comb : int array array;  (* per net: combinational consumers *)
}

let compute (nl : Netlist.t) =
  let topo = Topo.compute nl in
  let level = topo.Topo.level in
  let max_level = topo.Topo.max_level in
  (* Stable level sort: counting sort over the topo order keeps same-level
     gates in topological (hence deterministic) relative order. *)
  let fill = Array.make (max_level + 2) 0 in
  Array.iter
    (fun i -> fill.(level.(i) + 1) <- fill.(level.(i) + 1) + 1)
    topo.Topo.order;
  for l = 1 to max_level + 1 do
    fill.(l) <- fill.(l) + fill.(l - 1)
  done;
  let order = Array.make (Array.length topo.Topo.order) 0 in
  Array.iter
    (fun i ->
      order.(fill.(level.(i))) <- i;
      fill.(level.(i)) <- fill.(level.(i)) + 1)
    topo.Topo.order;
  let comb = Array.make (Array.length nl.Netlist.gates) [] in
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.Gate.kind with
      | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        Array.iter (fun f -> comb.(f) <- i :: comb.(f)) g.Gate.fanins)
    nl.Netlist.gates;
  { nl; order; fanout_comb = Array.map (fun l -> Array.of_list (List.rev l)) comb }

let netlist t = t.nl
let num_comb_gates t = Array.length t.order
