let lanes = Bitsim.word_bits

(* Code word: opcode in bits 0-2, then operand slots [a] and [b] and
   the destination slot, 20 bits each. *)
let field = 20
let max_slots = 1 lsl field
let mask = max_slots - 1

type layout = { order : int array; slot : int array }

let layout (nl : Netlist.t) =
  let order = (Topo.compute nl).Topo.order in
  let slot = Array.make (Array.length nl.Netlist.gates) (-1) in
  let next = ref 0 in
  let place net =
    slot.(net) <- !next;
    incr next
  in
  Array.iter place nl.Netlist.input_nets;
  Array.iter place nl.Netlist.dff_nets;
  Array.iter place order;
  Array.iteri
    (fun net (g : Gate.t) -> match g.Gate.kind with Gate.Const _ -> place net | _ -> ())
    nl.Netlist.gates;
  if !next + Array.length nl.Netlist.dff_nets > max_slots then
    invalid_arg (Printf.sprintf "Program: %s needs more than %d slots" nl.Netlist.name max_slots);
  if Array.exists (fun s -> s < 0) slot then
    invalid_arg (Printf.sprintf "Program: %s has a net outside input_nets and dff_nets" nl.Netlist.name);
  { order; slot }

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

let encode (nl : Netlist.t) slot net =
  let g = nl.Netlist.gates.(net) in
  let a = slot.(g.Gate.fanins.(0)) in
  let b = if Array.length g.Gate.fanins > 1 then slot.(g.Gate.fanins.(1)) else a in
  opcode g.Gate.kind lor (a lsl 3) lor (b lsl (3 + field)) lor (slot.(net) lsl (3 + (2 * field)))

(* Slots are validated by [layout], so the gate loop uses unsafe
   accesses; callers check [v] against the program's size, and [lo],
   [hi] against the code. *)
let run code lo hi v =
  for k = lo to hi - 1 do
    let c = Array.unsafe_get code k in
    let a = Array.unsafe_get v ((c lsr 3) land mask) in
    let b = Array.unsafe_get v ((c lsr (3 + field)) land mask) in
    Array.unsafe_set v (c lsr (3 + (2 * field)))
      (match c land 7 with
       | 0 -> a
       | 1 -> lnot a
       | 2 -> a land b
       | 3 -> a lor b
       | 4 -> lnot (a land b)
       | 5 -> lnot (a lor b)
       | 6 -> a lxor b
       | _ -> lnot (a lxor b))
  done

let exec code v = run code 0 (Array.length code) v

type t = {
  inputs : int;  (* input bits, at slots [0, inputs); Q slots follow *)
  code : int array;  (* per gate, topological *)
  d : int array;  (* per flip-flop: slot of its D input *)
  init : int array;  (* per constant, then per flip-flop: its reset word *)
  outs : int array;  (* per output bit: slot of its driver *)
}

let of_layout (nl : Netlist.t) { order; slot } =
  let gates = nl.Netlist.gates in
  let word b = if b then Bitsim.all_ones else 0 in
  let consts =
    Array.fold_right
      (fun (g : Gate.t) acc -> match g.Gate.kind with Gate.Const b -> word b :: acc | _ -> acc)
      gates []
  in
  let flops = nl.Netlist.dff_nets in
  {
    inputs = Array.length nl.Netlist.input_nets;
    code = Array.map (encode nl slot) order;
    d = Array.map (fun q -> slot.(gates.(q).Gate.fanins.(0))) flops;
    init =
      Array.append (Array.of_list consts)
        (Array.map
           (fun q -> match gates.(q).Gate.kind with Gate.Dff b -> word b | _ -> 0)
           flops);
    outs = Array.map (fun (_, net) -> slot.(net)) nl.Netlist.output_list;
  }

let of_netlist nl = of_layout nl (layout nl)

let input_bits t = t.inputs
let output_bits t = Array.length t.outs
let gates t = Array.length t.code
let first_init t = t.inputs + Array.length t.d + Array.length t.code
let words t = first_init t + Array.length t.init
let state_slots t = (words t - Array.length t.d, Array.length t.d)

let reset t v = Array.blit t.init 0 v (first_init t) (Array.length t.init)

let step t v inputs pos =
  let nf = Array.length t.d and words = words t in
  if Array.length v < words then invalid_arg "Program.step: scratch too small";
  let pend = words - nf in
  Array.blit v pend v t.inputs nf;
  Array.blit inputs pos v 0 t.inputs;
  exec t.code v;
  for f = 0 to nf - 1 do
    Array.unsafe_set v (pend + f) (Array.unsafe_get v (Array.unsafe_get t.d f))
  done

let exec_range t lo hi v =
  if lo < 0 || hi > Array.length t.code || Array.length v < words t then
    invalid_arg "Program.exec_range";
  run t.code lo hi v

let outputs t v dst pos = Array.iteri (fun j s -> dst.(pos + j) <- v.(s)) t.outs

let mismatch t v expected pos =
  let diff = ref 0 in
  Array.iteri (fun j s -> diff := !diff lor (v.(s) lxor expected.(pos + j))) t.outs;
  !diff
