module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Regions = Mutsamp_netlist.Regions

let net_loc i = Printf.sprintf "net%d" i

let run ?(check_observability = true) ?(hotspot_fanout = 32)
    ?(max_region = 512) ~circuit (nl : Netlist.t) =
  let diags = ref [] in
  let emit rule loc fmt =
    Printf.ksprintf
      (fun message -> diags := Diag.make ~rule ~circuit ~loc ~message :: !diags)
      fmt
  in
  let n = Array.length nl.Netlist.gates in
  let gate i = nl.Netlist.gates.(i) in
  let kind i = (gate i).Gate.kind in
  (* NL001: constant nets. *)
  let cp = Constprop.compute nl in
  List.iter
    (fun (i, v) ->
      emit Rule.nl_constant_net (net_loc i) "%s gate output is always %d"
        (Gate.kind_name (kind i))
        (if v then 1 else 0))
    (Constprop.constant_nets cp);
  (* NL002: gates outside every output cone — what [Sweep.run] would
     remove. *)
  let live = Array.make n false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter mark (gate i).Gate.fanins
    end
  in
  Array.iter (fun (_, net) -> mark net) nl.Netlist.output_list;
  let fanouts = Netlist.fanouts nl in
  for i = 0 to n - 1 do
    match kind i with
    | Gate.Pi _ -> ()
    | k ->
      if not live.(i) then
        emit Rule.nl_dead_gate (net_loc i) "%s gate feeds no primary output"
          (Gate.kind_name k)
  done;
  (* NL003: inputs are always kept by the sweeper, so "dead" for a PI
     means it feeds nothing and is not wired straight to an output. *)
  Array.iter
    (fun i ->
      if fanouts.(i) = []
         && not (Array.exists (fun (_, net) -> net = i) nl.Netlist.output_list)
      then emit Rule.nl_unused_input (net_loc i) "primary input drives no gate")
    nl.Netlist.input_nets;
  (* NL005: buffers (the builder never emits them; imports can). *)
  for i = 0 to n - 1 do
    match kind i with
    | Gate.Buf -> emit Rule.nl_buffer_gate (net_loc i) "buffer copies net %d"
                    (gate i).Gate.fanins.(0)
    | _ -> ()
  done;
  (* NL006: structural duplicates the hash-consing missed (imported
     netlists, nets tied mid-flow). *)
  let seen = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let g = gate i in
    (match g.Gate.kind with
     | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor
     | Gate.Not | Gate.Buf ->
       let fanins = Array.to_list g.Gate.fanins in
       let fanins =
         if Gate.is_commutative g.Gate.kind then List.sort Stdlib.compare fanins
         else fanins
       in
       let key = (Gate.kind_name g.Gate.kind, fanins) in
       (match Hashtbl.find_opt seen key with
        | Some first ->
          emit Rule.nl_duplicate_gate (net_loc i) "%s gate duplicates net %d"
            (Gate.kind_name g.Gate.kind) first
        | None -> Hashtbl.add seen key i)
     | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> ())
  done;
  (* NL007/NL009: structural smells from the dataflow engine —
     reconvergent wide stems (test-generation hotspots) and outsized
     fanout-free regions (usually a missing pipeline cut). *)
  let regions = Regions.compute nl in
  for i = 0 to n - 1 do
    let fo = List.length fanouts.(i) in
    if fo >= hotspot_fanout && regions.Regions.reconvergent.(i) then
      emit Rule.nl_reconvergent_hotspot (net_loc i)
        "net fans out %d ways and reconverges downstream" fo
  done;
  let region_size = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    match kind i with
    | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> ()
    | _ ->
      let h = regions.Regions.head.(i) in
      Hashtbl.replace region_size h
        (1 + Option.value ~default:0 (Hashtbl.find_opt region_size h))
  done;
  Hashtbl.iter
    (fun h size ->
      if size > max_region then
        emit Rule.nl_oversized_region (net_loc h)
          "fanout-free region holds %d logic gates (threshold %d)" size
          max_region)
    region_size;
  (* NL004: live, non-constant nets that still cannot influence any
     output — every propagation path is blocked by a constant side
     input. *)
  if check_observability then begin
    let ut = Untestable.analyze nl in
    for i = 0 to n - 1 do
      if live.(i)
         && Constprop.value cp i = Constprop.Unknown
         && not (Untestable.stem_observable ut i)
      then
        emit Rule.nl_blocked_net (net_loc i)
          "%s gate output cannot influence any primary output"
          (Gate.kind_name (kind i))
    done;
    (* NL008: post-dominator side-input conflicts. Every path from the
       net to an output runs through each of its post-dominators, and an
       And/Nand (resp. Or/Nor) dominator only passes the effect when its
       off-path fanins are 1 (resp. 0). When two dominators demand
       opposite values of the same side net — or a demand contradicts a
       proved constant — no single vector sensitises any path, which the
       per-gate may-differ sweep behind NL004 cannot see. Combinational
       only: across flops the demands may be met in different cycles. *)
    if Netlist.num_dffs nl = 0 then begin
      let pdom = Domtree.post nl in
      let stamp = Array.make n (-1) in
      let in_cone start =
        let rec go i =
          if stamp.(i) <> start then begin
            stamp.(i) <- start;
            List.iter go fanouts.(i)
          end
        in
        go start;
        fun i -> stamp.(i) = start
      in
      for i = 0 to n - 1 do
        if live.(i)
           && Constprop.value cp i = Constprop.Unknown
           && Untestable.stem_observable ut i
           && pdom.Domtree.idom.(i) >= 0
        then begin
          let cone = in_cone i in
          let reqs = Hashtbl.create 8 in
          let conflict = ref None in
          let require dom f v =
            if !conflict = None then begin
              let clash reason = conflict := Some (dom, f, v, reason) in
              match Constprop.value cp f with
              | Constprop.Zero when v -> clash "that net is constant 0"
              | Constprop.One when not v -> clash "that net is constant 1"
              | _ -> (
                match Hashtbl.find_opt reqs f with
                | Some (prev, prev_dom) when prev <> v ->
                  clash
                    (Printf.sprintf "dominating net%d needs net%d=%d"
                       prev_dom f (if prev then 1 else 0))
                | Some _ -> ()
                | None -> Hashtbl.add reqs f (v, dom))
            end
          in
          List.iter
            (fun d ->
              match
                match kind d with
                | Gate.And | Gate.Nand -> Some true
                | Gate.Or | Gate.Nor -> Some false
                | _ -> None
              with
              | None -> ()
              | Some v ->
                Array.iter
                  (fun f -> if not (cone f) then require d f v)
                  (gate d).Gate.fanins)
            (Domtree.dominators pdom i);
          match !conflict with
          | Some (dom, f, v, reason) ->
            emit Rule.nl_dominator_blocked (net_loc i)
              "no sensitised path to any output: dominating %s gate net%d \
               needs net%d=%d, but %s"
              (Gate.kind_name (kind dom)) dom f (if v then 1 else 0) reason
          | None -> ()
        end
      done
    end
  end;
  !diags
