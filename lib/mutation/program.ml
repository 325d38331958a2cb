module Ast = Mutsamp_hdl.Ast
module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Topo = Mutsamp_netlist.Topo
module Lower = Mutsamp_synth.Lower

let lanes = Mutsamp_netlist.Bitsim.word_bits

type t = {
  inputs : int;  (* input bits, at slots [2, 2 + inputs) *)
  first_q : int;  (* flip-flop f's Q at [first_q + f] *)
  first_gate : int;  (* gate k writes [first_gate + k]; pending states follow *)
  code : int array;  (* per gate: opcode lor (fanin0 lsl 3) lor (fanin1 lsl 33) *)
  d : int array;  (* per flip-flop: slot of its D input *)
  init : int array;  (* per flip-flop: reset word, 0 or -1 *)
  outs : int array;  (* per output bit: slot of its driver *)
}

let input_bits t = t.inputs
let output_bits t = Array.length t.outs
let pending t = t.first_gate + Array.length t.code
let words t = pending t + Array.length t.d

let opcode = function
  | Gate.Buf -> 0
  | Gate.Not -> 1
  | Gate.And -> 2
  | Gate.Or -> 3
  | Gate.Nand -> 4
  | Gate.Nor -> 5
  | Gate.Xor -> 6
  | Gate.Xnor -> 7
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> invalid_arg "Program.opcode"

let fail fmt = Printf.ksprintf (fun msg -> raise (Lower.Synth_error msg)) fmt

(* Port bit name -> position, in declaration order. *)
let port_bits decls =
  let pos = Hashtbl.create 64 in
  let n =
    List.fold_left
      (fun k (dc : Ast.decl) ->
        for i = 0 to dc.width - 1 do
          Hashtbl.replace pos (Lower.bit_name dc.name dc.width i) (k + i)
        done;
        k + dc.width)
      0 decls
  in
  (pos, n)

let compile design =
  let nl = Mutsamp_synth.Flow.synthesize design in
  let gates = nl.Netlist.gates in
  let in_pos, inputs = port_bits (Ast.inputs design) in
  let out_pos, n_out = port_bits (Ast.outputs design) in
  let order = (Topo.compute nl).Topo.order in
  let flops = nl.Netlist.dff_nets in
  let first_q = 2 + inputs in
  let first_gate = first_q + Array.length flops in
  let slot = Array.make (Array.length gates) (-1) in
  Array.iteri
    (fun net (g : Gate.t) ->
      match g.kind with
      | Gate.Const b -> slot.(net) <- (if b then 1 else 0)
      | Gate.Pi name -> (
        match Hashtbl.find_opt in_pos name with
        | Some k -> slot.(net) <- 2 + k
        | None -> fail "%s: netlist input %s is not a design port bit" design.Ast.name name)
      | _ -> ())
    gates;
  Array.iteri (fun f net -> slot.(net) <- first_q + f) flops;
  Array.iteri (fun k net -> slot.(net) <- first_gate + k) order;
  let fanin net pin = slot.(gates.(net).Gate.fanins.(pin)) in
  let code =
    Array.map
      (fun net ->
        let g = gates.(net) in
        let b = if Array.length g.Gate.fanins > 1 then fanin net 1 else fanin net 0 in
        opcode g.Gate.kind lor (fanin net 0 lsl 3) lor (b lsl 33))
      order
  in
  let outs = Array.make n_out (-1) in
  Array.iter
    (fun (name, net) ->
      match Hashtbl.find_opt out_pos name with
      | Some j -> outs.(j) <- slot.(net)
      | None -> fail "%s: netlist output %s is not a design port bit" design.Ast.name name)
    nl.Netlist.output_list;
  if Array.exists (fun s -> s < 0) outs then
    fail "%s: netlist drops a design output bit" design.Ast.name;
  {
    inputs;
    first_q;
    first_gate;
    code;
    d = Array.map (fun net -> fanin net 0) flops;
    init =
      Array.map
        (fun net -> match gates.(net).Gate.kind with Gate.Dff true -> -1 | _ -> 0)
        flops;
    outs;
  }

let reset t v =
  v.(0) <- 0;
  v.(1) <- -1;
  Array.blit t.init 0 v (pending t) (Array.length t.init)

(* Slots are validated at compile time and [v] is checked against
   [words] once per step, so the gate loop uses unsafe accesses. *)
let step t v inputs pos =
  let pend = pending t and nf = Array.length t.d in
  if Array.length v < pend + nf then invalid_arg "Program.step: scratch too small";
  Array.blit v pend v t.first_q nf;
  Array.blit inputs pos v 2 t.inputs;
  let code = t.code and g0 = t.first_gate in
  for k = 0 to Array.length code - 1 do
    let c = Array.unsafe_get code k in
    let a = Array.unsafe_get v ((c lsr 3) land 0x3FFFFFFF) in
    let b = Array.unsafe_get v (c lsr 33) in
    Array.unsafe_set v (g0 + k)
      (match c land 7 with
       | 0 -> a
       | 1 -> lnot a
       | 2 -> a land b
       | 3 -> a lor b
       | 4 -> lnot (a land b)
       | 5 -> lnot (a lor b)
       | 6 -> a lxor b
       | _ -> lnot (a lxor b))
  done;
  for f = 0 to nf - 1 do
    Array.unsafe_set v (pend + f) (Array.unsafe_get v (Array.unsafe_get t.d f))
  done

let outputs t v dst pos = Array.iteri (fun j s -> dst.(pos + j) <- v.(s)) t.outs

let mismatch t v expected pos =
  let diff = ref 0 in
  Array.iteri (fun j s -> diff := !diff lor (v.(s) lxor expected.(pos + j))) t.outs;
  !diff
