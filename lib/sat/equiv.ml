module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim

type verdict =
  | Equivalent
  | Counterexample of bool array

exception Equiv_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Equiv_error msg)) fmt

let check ?budget a b =
  if Netlist.num_dffs a > 0 || Netlist.num_dffs b > 0 then
    fail "sequential netlist: use the behavioural product-machine check";
  if Netlist.port_names a <> Netlist.port_names b then fail "interface mismatch";
  let cnf = Cnf.create () in
  (* One shared variable per input position. *)
  let shared = Array.map (fun _ -> Cnf.new_var cnf) a.Netlist.input_nets in
  let enc_a = Tseitin.encode_shared ~into:cnf ~share_inputs:shared a in
  let enc_b = Tseitin.encode_shared ~into:cnf ~share_inputs:shared b in
  let diffs =
    Array.map2
      (fun (_, na) (_, nb) ->
        Tseitin.xor_out cnf enc_a.Tseitin.var_of_net.(na) enc_b.Tseitin.var_of_net.(nb))
      a.Netlist.output_list b.Netlist.output_list
  in
  Cnf.add_clause cnf [ Tseitin.or_list cnf (Array.to_list diffs) ];
  match Solver.solve ?budget cnf with
  | Error e -> Error e
  | Ok Solver.Unsat -> Ok Equivalent
  | Ok (Solver.Sat model) -> Ok (Counterexample (Array.map (fun v -> model.(v)) shared))

let counterexample_is_real a b assignment =
  let words = Array.map (fun v -> if v then Bitsim.all_ones else 0) assignment in
  let oa = Bitsim.step (Bitsim.create a) words in
  let ob = Bitsim.step (Bitsim.create b) words in
  oa <> ob
