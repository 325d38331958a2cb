type t = {
  head : int array;
  region_count : int;
  max_region_size : int;
  reconvergent : bool array;
  reconvergence_count : int;
}

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
  {
    head;
    region_count;
    max_region_size;
    reconvergent;
    reconvergence_count = !reconvergence_count;
  }
