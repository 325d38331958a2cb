module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Bitsim = Mutsamp_netlist.Bitsim

type polarity = Stuck_at_0 | Stuck_at_1

type site =
  | Stem of int
  | Branch of { gate : int; pin : int }

type t = { site : site; polarity : polarity }

let full_list (nl : Netlist.t) =
  let fanout_counts = Array.map List.length (Netlist.fanouts nl) in
  let stems =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (g : Gate.t) ->
              match g.kind with
              | Gate.Const _ -> []
              | _ ->
                [ { site = Stem i; polarity = Stuck_at_0 };
                  { site = Stem i; polarity = Stuck_at_1 } ])
            nl.gates))
  in
  let branches =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun gate (g : Gate.t) ->
              List.concat
                (List.mapi
                   (fun pin driver ->
                     if fanout_counts.(driver) > 1 then
                       [ { site = Branch { gate; pin }; polarity = Stuck_at_0 };
                         { site = Branch { gate; pin }; polarity = Stuck_at_1 } ]
                     else [])
                   (Array.to_list g.fanins)))
            nl.gates))
  in
  stems @ branches

let injection f =
  match f.site with
  | Stem net -> Bitsim.Net net
  | Branch { gate; pin } -> Bitsim.Pin { gate; pin }

let stuck_word f =
  match f.polarity with Stuck_at_0 -> 0 | Stuck_at_1 -> Bitsim.all_ones

let rank_site = function
  | Stem net -> (0, net, 0)
  | Branch { gate; pin } -> (1, gate, pin)

let compare a b =
  Stdlib.compare (rank_site a.site, a.polarity) (rank_site b.site, b.polarity)

let to_string f =
  let pol = match f.polarity with Stuck_at_0 -> "SA0" | Stuck_at_1 -> "SA1" in
  match f.site with
  | Stem net -> Printf.sprintf "net%d/%s" net pol
  | Branch { gate; pin } -> Printf.sprintf "g%d.pin%d/%s" gate pin pol

let pp fmt f = Format.pp_print_string fmt (to_string f)
