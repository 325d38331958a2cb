module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate

type t = { cnf : Cnf.t; var_of_net : int array }

let gate_clauses cnf out kind a b =
  match kind with
  | Gate.Buf ->
    Cnf.add_clause cnf [ -out; a ];
    Cnf.add_clause cnf [ out; -a ]
  | Gate.Not ->
    Cnf.add_clause cnf [ -out; -a ];
    Cnf.add_clause cnf [ out; a ]
  | Gate.And ->
    Cnf.add_clause cnf [ -out; a ];
    Cnf.add_clause cnf [ -out; b ];
    Cnf.add_clause cnf [ out; -a; -b ]
  | Gate.Nand ->
    Cnf.add_clause cnf [ out; a ];
    Cnf.add_clause cnf [ out; b ];
    Cnf.add_clause cnf [ -out; -a; -b ]
  | Gate.Or ->
    Cnf.add_clause cnf [ out; -a ];
    Cnf.add_clause cnf [ out; -b ];
    Cnf.add_clause cnf [ -out; a; b ]
  | Gate.Nor ->
    Cnf.add_clause cnf [ -out; -a ];
    Cnf.add_clause cnf [ -out; -b ];
    Cnf.add_clause cnf [ out; a; b ]
  | Gate.Xor ->
    Cnf.add_clause cnf [ -out; a; b ];
    Cnf.add_clause cnf [ -out; -a; -b ];
    Cnf.add_clause cnf [ out; -a; b ];
    Cnf.add_clause cnf [ out; a; -b ]
  | Gate.Xnor ->
    Cnf.add_clause cnf [ out; a; b ];
    Cnf.add_clause cnf [ out; -a; -b ];
    Cnf.add_clause cnf [ -out; -a; b ];
    Cnf.add_clause cnf [ -out; a; -b ]
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> assert false

let encode_shared ~into ~share_inputs (nl : Netlist.t) =
  let cnf = into in
  let n = Array.length nl.gates in
  if share_inputs <> [||] && Array.length share_inputs <> Array.length nl.input_nets then
    invalid_arg "Tseitin.encode_shared: one variable per input expected";
  let var_of_net = Array.make n 0 in
  Array.iteri (fun k v -> var_of_net.(nl.input_nets.(k)) <- v) share_inputs;
  (* Pass 1: allocate variables (shared PIs already have theirs). *)
  Array.iteri (fun i v -> if v = 0 then var_of_net.(i) <- Cnf.new_var cnf) var_of_net;
  (* Pass 2: constraints. *)
  Array.iteri
    (fun i (g : Gate.t) ->
      let out = var_of_net.(i) in
      match g.kind with
      | Gate.Pi _ -> ()
      | Gate.Dff _ -> ()  (* free variable: full-scan view *)
      | Gate.Const true -> Cnf.add_clause cnf [ out ]
      | Gate.Const false -> Cnf.add_clause cnf [ -out ]
      | Gate.Buf | Gate.Not ->
        gate_clauses cnf out g.kind var_of_net.(g.fanins.(0)) 0
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        gate_clauses cnf out g.kind var_of_net.(g.fanins.(0)) var_of_net.(g.fanins.(1)))
    nl.gates;
  { cnf; var_of_net }

let encode ?into nl =
  let cnf = match into with Some c -> c | None -> Cnf.create () in
  encode_shared ~into:cnf ~share_inputs:[||] nl

let xor_out cnf a b =
  let out = Cnf.new_var cnf in
  Cnf.add_clause cnf [ -out; a; b ];
  Cnf.add_clause cnf [ -out; -a; -b ];
  Cnf.add_clause cnf [ out; -a; b ];
  Cnf.add_clause cnf [ out; a; -b ];
  out

let or_list cnf lits =
  if lits = [] then invalid_arg "Tseitin.or_list: empty";
  let out = Cnf.new_var cnf in
  List.iter (fun l -> Cnf.add_clause cnf [ out; -l ]) lits;
  Cnf.add_clause cnf (-out :: lits);
  out
