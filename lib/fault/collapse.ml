module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate

type t = {
  representatives : Fault.t list;
  class_of : Fault.t -> Fault.t;
  full_size : int;
  collapsed_size : int;
}

(* Plain union–find over fault indices. *)
let find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

let run (nl : Netlist.t) =
  let faults = Array.of_list (Fault.full_list nl) in
  let index = Hashtbl.create (Array.length faults) in
  Array.iteri (fun i f -> Hashtbl.replace index f i) faults;
  let parent = Array.init (Array.length faults) (fun i -> i) in
  let fanout_counts = Array.map List.length (Netlist.fanouts nl) in
  (* The fault observed at pin [pin] of [gate], whose driver is [net]:
     the branch fault when the stem fans out, else the stem fault
     itself. Returns None when the fault is not in the universe
     (constant stems). *)
  let input_fault gate pin net polarity =
    let site =
      if fanout_counts.(net) > 1 then Fault.Branch { gate; pin } else Fault.Stem net
    in
    Hashtbl.find_opt index { Fault.site; polarity }
  in
  let stem net polarity = Hashtbl.find_opt index { Fault.site = Fault.Stem net; polarity } in
  let link a b = match a, b with Some x, Some y -> union parent x y | _ -> () in
  Array.iteri
    (fun g (gate : Gate.t) ->
      let pin k = gate.fanins.(k) in
      match gate.kind with
      | Gate.And ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_0) (stem g Fault.Stuck_at_0);
        link (input_fault g 1 (pin 1) Fault.Stuck_at_0) (stem g Fault.Stuck_at_0)
      | Gate.Nand ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_0) (stem g Fault.Stuck_at_1);
        link (input_fault g 1 (pin 1) Fault.Stuck_at_0) (stem g Fault.Stuck_at_1)
      | Gate.Or ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_1) (stem g Fault.Stuck_at_1);
        link (input_fault g 1 (pin 1) Fault.Stuck_at_1) (stem g Fault.Stuck_at_1)
      | Gate.Nor ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_1) (stem g Fault.Stuck_at_0);
        link (input_fault g 1 (pin 1) Fault.Stuck_at_1) (stem g Fault.Stuck_at_0)
      | Gate.Buf ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_0) (stem g Fault.Stuck_at_0);
        link (input_fault g 0 (pin 0) Fault.Stuck_at_1) (stem g Fault.Stuck_at_1)
      | Gate.Not ->
        link (input_fault g 0 (pin 0) Fault.Stuck_at_0) (stem g Fault.Stuck_at_1);
        link (input_fault g 0 (pin 0) Fault.Stuck_at_1) (stem g Fault.Stuck_at_0)
      | Gate.Xor | Gate.Xnor | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> ())
    nl.gates;
  let reps = Hashtbl.create 64 in
  Array.iteri
    (fun i _ ->
      let r = find parent i in
      if not (Hashtbl.mem reps r) then Hashtbl.add reps r ())
    faults;
  let representatives =
    List.sort Stdlib.compare (Hashtbl.fold (fun r () acc -> r :: acc) reps [])
    |> List.map (fun r -> faults.(r))
  in
  let class_of f =
    match Hashtbl.find_opt index f with
    | Some i -> faults.(find parent i)
    | None -> invalid_arg ("Collapse.class_of: unknown fault " ^ Fault.to_string f)
  in
  {
    representatives;
    class_of;
    full_size = Array.length faults;
    collapsed_size = List.length representatives;
  }

let ratio t = float_of_int t.collapsed_size /. float_of_int t.full_size
