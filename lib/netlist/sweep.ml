(* Seeds the rebuilt gate array, as in [Netlist.Builder.finalize]: a
   static gate, so a long array forces no minor collection. *)
let placeholder = { Gate.kind = Gate.Buf; fanins = [||] }

let run (nl : Netlist.t) =
  let n = Array.length nl.gates in
  (* Per net: -1 while dead; marking sets 0, renumbering the new id. *)
  let remap = Array.make n (-1) in
  let live i = remap.(i) >= 0 in
  let rec mark i =
    if not (live i) then begin
      remap.(i) <- 0;
      let fanins = nl.gates.(i).Gate.fanins in
      for k = 0 to Array.length fanins - 1 do
        mark fanins.(k)
      done
    end
  in
  (* [mark] recurses through every fanin, and a flip-flop's fanin is its
     D pin, so marking an output cone transitively pulls in the state
     logic it depends on — across any number of register stages. *)
  Array.iter (fun (_, net) -> mark net) nl.output_list;
  Array.iter (fun net -> remap.(net) <- 0) nl.input_nets;
  (* Renumber. *)
  let count = ref 0 in
  for i = 0 to n - 1 do
    if live i then begin
      remap.(i) <- !count;
      incr count
    end
  done;
  let gates = Array.make !count placeholder in
  for i = 0 to n - 1 do
    if live i then begin
      let g = nl.gates.(i) in
      gates.(remap.(i)) <- { g with Gate.fanins = Array.map (fun f -> remap.(f)) g.Gate.fanins }
    end
  done;
  let live_dffs =
    let kept = Array.make (Array.length nl.dff_nets) 0 and k = ref 0 in
    Array.iter
      (fun q ->
        if live q then begin
          kept.(!k) <- remap.(q);
          incr k
        end)
      nl.dff_nets;
    Array.sub kept 0 !k
  in
  let swept =
    {
      nl with
      Netlist.gates;
      input_nets = Array.map (fun net -> remap.(net)) nl.input_nets;
      output_list = Array.map (fun (name, net) -> (name, remap.(net))) nl.output_list;
      dff_nets = live_dffs;
    }
  in
  Netlist.lint swept;
  (swept, n - !count)
