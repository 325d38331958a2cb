(* Nets of named ports, looked up through the netlist's port lists.
   Both raise [Not_found] on a name the netlist lacks. *)

module Netlist = Mutsamp_netlist.Netlist

let input nl name =
  match Array.find_index (String.equal name) (Netlist.input_names nl) with
  | Some i -> nl.Netlist.input_nets.(i)
  | None -> raise Not_found

let output nl name = List.assoc name (Array.to_list nl.Netlist.output_list)
