module Ast = Mutsamp_hdl.Ast
module Sim = Mutsamp_hdl.Sim
module Bitvec = Mutsamp_util.Bitvec
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim

exception Mapping_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Mapping_error msg)) fmt

type t = {
  design : Ast.design;
  nl : Netlist.t;
  (* For each design input, (name, width, positions of its bits in the
     netlist's input order). *)
  in_ports : (string * int * int array) array;
  (* For each design output, (name, width, positions in output_list). *)
  out_ports : (string * int * int array) array;
}

let make design nl =
  let input_pos = Hashtbl.create 32 in
  Array.iteri
    (fun k name -> Hashtbl.replace input_pos name k)
    (Netlist.input_names nl);
  let output_pos = Hashtbl.create 32 in
  Array.iteri (fun k (name, _) -> Hashtbl.replace output_pos name k) nl.Netlist.output_list;
  let port_positions table (dc : Ast.decl) =
    Array.init dc.width (fun i ->
        let bit = Lower.bit_name dc.name dc.width i in
        match Hashtbl.find_opt table bit with
        | Some k -> k
        | None -> fail "%s: netlist is missing port bit %s" design.Ast.name bit)
  in
  let in_ports =
    Array.of_list
      (List.map
         (fun (dc : Ast.decl) -> (dc.name, dc.width, port_positions input_pos dc))
         (Ast.inputs design))
  in
  let out_ports =
    Array.of_list
      (List.map
         (fun (dc : Ast.decl) -> (dc.name, dc.width, port_positions output_pos dc))
         (Ast.outputs design))
  in
  let design_in_bits =
    List.fold_left (fun acc (dc : Ast.decl) -> acc + dc.width) 0 (Ast.inputs design)
  in
  if design_in_bits <> Array.length nl.Netlist.input_nets then
    fail "%s: netlist has %d input bits, design has %d" design.Ast.name
      (Array.length nl.Netlist.input_nets) design_in_bits;
  { design; nl; in_ports; out_ports }

let netlist t = t.nl

let set_inputs t (stimulus : Sim.stimulus) f =
  let name = t.design.Ast.name in
  Array.iter
    (fun (port, width, positions) ->
      match List.assoc_opt port stimulus with
      | None -> fail "%s: stimulus missing input %s" name port
      | Some bv ->
        if Bitvec.width bv <> width then
          fail "%s: input %s expects width %d, got %d" name port width (Bitvec.width bv);
        Array.iteri (fun i k -> if Bitvec.bit bv i then f k) positions)
    t.in_ports;
  List.iter
    (fun (port, _) ->
      if not (Array.exists (fun (p, _, _) -> String.equal p port) t.in_ports) then
        fail "%s: stimulus names non-input %s" name port)
    stimulus

let stimulus_of_inputs t get =
  Array.to_list
    (Array.map
       (fun (name, width, positions) -> (name, Bitvec.init width (fun i -> get positions.(i))))
       t.in_ports)

let pack_stimulus t stimulus =
  let words = Array.make (Array.length t.nl.Netlist.input_nets) 0 in
  set_inputs t stimulus (fun k -> words.(k) <- Bitsim.all_ones);
  words

let unpack_outputs t output_words ~lane =
  Array.to_list
    (Array.map
       (fun (name, width, positions) ->
         ( name,
           Bitvec.init width (fun i ->
               (output_words.(positions.(i)) lsr lane) land 1 = 1) ))
       t.out_ports)
