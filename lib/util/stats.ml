let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] -> nan
  | xs ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
      /. float_of_int (List.length xs)
    in
    sqrt var

let median = function
  | [] -> nan
  | xs ->
    let arr = Array.of_list xs in
    Array.sort Stdlib.compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let percent ~num ~den =
  if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let round2 x = Float.round (x *. 100.) /. 100.

let largest_remainder ~total weights =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    Array.iter (fun w -> if w < 0. then invalid_arg "Stats.largest_remainder: negative weight") weights;
    let sum = Array.fold_left ( +. ) 0. weights in
    let weights = if sum <= 0. then Array.make n 1. else weights in
    let sum = if sum <= 0. then float_of_int n else sum in
    let quota = Array.map (fun w -> float_of_int total *. w /. sum) weights in
    let base = Array.map (fun q -> int_of_float (floor q)) quota in
    let assigned = Array.fold_left ( + ) 0 base in
    let remainder = Array.mapi (fun i q -> (q -. floor q, i)) quota in
    Array.sort (fun (a, _) (b, _) -> Stdlib.compare b a) remainder;
    let extra = total - assigned in
    for k = 0 to extra - 1 do
      let _, i = remainder.(k mod n) in
      base.(i) <- base.(i) + 1
    done;
    base
  end
