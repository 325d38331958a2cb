type t = {
  head : int array;
  region_count : int;
  max_region_size : int;
  reconvergent : bool array;
  reconvergence_count : int;
  cone_hash : string array;
}

let digest s = Digest.to_hex (Digest.string s)

let is_logic (g : Gate.t) =
  match g.Gate.kind with
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> false
  | _ -> true

let compute (nl : Netlist.t) =
  let n = Array.length nl.Netlist.gates in
  let fanouts = Netlist.fanouts nl in
  let drives_po = Array.make n false in
  Array.iter (fun (_, net) -> drives_po.(net) <- true) nl.Netlist.output_list;
  (* Fanout-free regions: follow single-fanout edges forward until a
     stem, an output use or a register boundary. Memoized; the chase
     cannot loop because any cycle passes through a DFF, which stops
     it. *)
  let head = Array.make n (-1) in
  let rec head_of v =
    if head.(v) >= 0 then head.(v)
    else begin
      let h =
        match fanouts.(v) with
        | [ g ] when (not drives_po.(v)) && is_logic nl.Netlist.gates.(g) -> head_of g
        | _ -> v
      in
      head.(v) <- h;
      h
    end
  in
  for v = 0 to n - 1 do
    ignore (head_of v)
  done;
  let region_size = Hashtbl.create 64 in
  let bump h by =
    Hashtbl.replace region_size h (by + try Hashtbl.find region_size h with Not_found -> 0)
  in
  Array.iteri
    (fun v (g : Gate.t) -> bump head.(v) (if is_logic g then 1 else 0))
    nl.Netlist.gates;
  let region_count = Hashtbl.length region_size in
  let max_region_size = Hashtbl.fold (fun _ s acc -> max s acc) region_size 0 in
  (* Reconvergent stems: from each fanout branch of a multi-fanout net,
     walk forward stamping ownership; meeting a node another branch of
     the same stem already owns is a reconvergence. Stamps are
     versioned per stem so no clearing is needed. *)
  let reconvergent = Array.make n false in
  let stamp = Array.make n (-1) in
  let owner = Array.make n (-1) in
  let version = ref 0 in
  let reconvergence_count = ref 0 in
  for s = 0 to n - 1 do
    match fanouts.(s) with
    | [] | [ _ ] -> ()
    | branches ->
      incr version;
      let meet = ref false in
      List.iteri
        (fun b g ->
          let todo = ref [ g ] in
          while !todo <> [] do
            match !todo with
            | [] -> ()
            | v :: rest ->
              todo := rest;
              if stamp.(v) = !version then begin
                if owner.(v) <> b then meet := true
              end
              else begin
                stamp.(v) <- !version;
                owner.(v) <- b;
                todo := List.rev_append fanouts.(v) !todo
              end
          done)
        branches;
      if !meet then begin
        reconvergent.(s) <- true;
        incr reconvergence_count
      end
  done;
  (* Merkle input-cone hashes. Fanins hash in literal pin order — a
     sorted rendering would leave pin indices (branch-fault sites)
     ambiguous under operand swap; the builder's hash-consing already
     normalises symmetric gates, so nothing is lost. *)
  let cone_hash = Array.make n "" in
  let pi_pos = Hashtbl.create 16 and dff_pos = Hashtbl.create 16 in
  Array.iteri (fun i net -> Hashtbl.replace pi_pos net i) nl.Netlist.input_nets;
  Array.iteri (fun i net -> Hashtbl.replace dff_pos net i) nl.Netlist.dff_nets;
  Array.iteri
    (fun v (g : Gate.t) ->
      match g.Gate.kind with
      | Gate.Pi _ -> cone_hash.(v) <- digest (Printf.sprintf "pi:%d" (Hashtbl.find pi_pos v))
      | Gate.Const b -> cone_hash.(v) <- digest (Printf.sprintf "const:%b" b)
      | Gate.Dff init ->
        cone_hash.(v) <-
          digest (Printf.sprintf "dff:%b:%d" init (Hashtbl.find dff_pos v))
      | _ -> ())
    nl.Netlist.gates;
  let topo = Topo.compute nl in
  Array.iter
    (fun v ->
      let g = nl.Netlist.gates.(v) in
      let parts =
        Array.to_list g.Gate.fanins |> List.map (fun f -> cone_hash.(f))
      in
      cone_hash.(v) <-
        digest (Gate.kind_name g.Gate.kind ^ "(" ^ String.concat "," parts ^ ")"))
    topo.Topo.order;
  {
    head;
    region_count;
    max_region_size;
    reconvergent;
    reconvergence_count = !reconvergence_count;
    cone_hash;
  }

let net_tokens (nl : Netlist.t) nets =
  let po_names = Hashtbl.create 16 in
  Array.iter
    (fun (name, net) ->
      Hashtbl.replace po_names net (name :: (try Hashtbl.find po_names net with Not_found -> [])))
    nl.Netlist.output_list;
  let tokens =
    List.concat_map
      (fun v ->
        let base =
          match nl.Netlist.gates.(v).Gate.kind with
          | Gate.Pi name -> name
          | _ -> Printf.sprintf "n%d" v
        in
        base :: (try Hashtbl.find po_names v with Not_found -> []))
      nets
  in
  List.sort_uniq compare tokens
