type t = {
  nets : int;
  primary_inputs : int;
  primary_outputs : int;
  flip_flops : int;
  logic_gates : int;
  gate_histogram : (string * int) list;
  levels : int;
  max_fanout : int;
  regions : int;
  max_region : int;
  reconvergences : int;
}

let compute (nl : Netlist.t) =
  let histogram = Hashtbl.create 16 in
  Array.iter
    (fun (g : Gate.t) ->
      let key = Gate.kind_name g.kind in
      Hashtbl.replace histogram key (1 + Option.value ~default:0 (Hashtbl.find_opt histogram key)))
    nl.gates;
  let gate_histogram =
    List.sort Stdlib.compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram [])
  in
  let topo = Topo.compute nl in
  let fanouts = Netlist.fanouts nl in
  let max_fanout =
    Array.fold_left (fun acc fo -> max acc (List.length fo)) 0 fanouts
  in
  let r = Regions.compute nl in
  {
    nets = Netlist.num_gates nl;
    primary_inputs = Array.length nl.input_nets;
    primary_outputs = Array.length nl.output_list;
    flip_flops = Netlist.num_dffs nl;
    logic_gates = Netlist.num_logic_gates nl;
    gate_histogram;
    levels = topo.Topo.max_level;
    max_fanout;
    regions = r.Regions.region_count;
    max_region = r.Regions.max_region_size;
    reconvergences = r.Regions.reconvergence_count;
  }

let to_string s =
  let hist =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) s.gate_histogram)
  in
  Printf.sprintf
    "nets=%d PI=%d PO=%d DFF=%d gates=%d levels=%d max_fanout=%d regions=%d \
     max_region=%d reconv=%d [%s]"
    s.nets s.primary_inputs s.primary_outputs s.flip_flops s.logic_gates s.levels
    s.max_fanout s.regions s.max_region s.reconvergences hist

let pp fmt s = Format.pp_print_string fmt (to_string s)
