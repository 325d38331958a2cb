module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate

type t = {
  nl : Netlist.t;
  cp : Constprop.t;
  md : bool array;  (* may-differ scratch, reused across calls *)
}

let analyze nl = { nl; cp = Constprop.compute nl; md = Array.make (Array.length nl.Netlist.gates) false }

(* Forward may-differ pass from [seed], a net forced to "differs".
   Values from constant propagation describe the fault-free circuit, so
   a side input blocks only when it is both proved constant and proved
   unaffected ([not md]): in that case the faulty circuit holds the
   same constant there. *)
let run_pass t seed =
  let nl = t.nl in
  let gates = nl.Netlist.gates in
  let n = Array.length gates in
  let md = t.md in
  Array.fill md 0 n false;
  md.(seed) <- true;
  let zero f = Constprop.value t.cp f = Constprop.Zero in
  let one f = Constprop.value t.cp f = Constprop.One in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if not md.(i) then begin
        let g = gates.(i) in
        let out =
          match g.Gate.kind with
          | Gate.Pi _ | Gate.Const _ -> false
          | Gate.Buf | Gate.Not | Gate.Dff _ -> md.(g.Gate.fanins.(0))
          | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
            let f0 = g.Gate.fanins.(0) and f1 = g.Gate.fanins.(1) in
            let d0 = md.(f0) and d1 = md.(f1) in
            let blocks f d =
              match g.Gate.kind with
              | Gate.And | Gate.Nand -> zero f && not d
              | Gate.Or | Gate.Nor -> one f && not d
              | Gate.Xor | Gate.Xnor | _ -> false
            in
            (d0 && not (blocks f1 d1)) || (d1 && not (blocks f0 d0))
        in
        if out then begin
          md.(i) <- true;
          changed := true
        end
      end
    done
  done

let stem_observable t net =
  run_pass t net;
  Array.exists (fun (_, o) -> t.md.(o)) t.nl.Netlist.output_list
