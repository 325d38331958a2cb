type t = { order : int array; level : int array; max_level : int }

(* Net order is the order the DFS below yields when every gate reads
   only lower-numbered nets: each fanin is visited before its reader. *)
let in_order (nl : Netlist.t) =
  let n = Array.length nl.gates in
  let level = Array.make n 0 in
  let gates = ref 0 and max_level = ref 0 in
  for i = 0 to n - 1 do
    let g = nl.gates.(i) in
    if Netlist.is_logic g.kind then begin
      let l = ref 0 in
      for k = 0 to Array.length g.fanins - 1 do
        let fl = level.(g.fanins.(k)) in
        if fl > !l then l := fl
      done;
      level.(i) <- !l + 1;
      if !l + 1 > !max_level then max_level := !l + 1;
      incr gates
    end
  done;
  let order = Array.make !gates 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if Netlist.is_logic nl.gates.(i).kind then begin
      order.(!k) <- i;
      incr k
    end
  done;
  { order; level; max_level = !max_level }

let compute (nl : Netlist.t) =
  if Netlist.in_net_order nl then in_order nl else
  let n = Array.length nl.gates in
  let level = Array.make n (-1) in
  let order = ref [] in
  let rec visit i =
    if level.(i) >= 0 then level.(i)
    else begin
      (* A -2 mark would flag a cycle, but Netlist.lint already rejects
         cyclic netlists; rely on that invariant. *)
      let l =
        match nl.gates.(i).Gate.kind with
        | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> 0
        | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
        | Gate.Xor | Gate.Xnor ->
          let m = Array.fold_left (fun acc f -> max acc (visit f)) 0 nl.gates.(i).Gate.fanins in
          order := i :: !order;
          m + 1
      in
      level.(i) <- l;
      l
    end
  in
  let max_level = ref 0 in
  for i = 0 to n - 1 do
    max_level := max !max_level (visit i)
  done;
  { order = Array.of_list (List.rev !order); level; max_level = !max_level }
