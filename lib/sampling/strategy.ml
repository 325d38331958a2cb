module Prng = Mutsamp_util.Prng
module Stats = Mutsamp_util.Stats
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant

type t =
  | Random_uniform
  | Operator_weighted of (Operator.t * float) list

let sample_size ~rate total =
  if rate <= 0. || rate > 1. then invalid_arg "Strategy.sample_size: rate not in (0,1]";
  if total = 0 then 0 else max 1 (int_of_float (Float.round (rate *. float_of_int total)))

(* Allocate [total] slots over operator classes with weights, capping
   each quota at the class population and redistributing the excess. *)
let allocate weights populations total =
  let ops = Array.of_list (List.map fst populations) in
  let pops = Array.of_list (List.map snd populations) in
  let w =
    Array.map
      (fun op ->
        let base = Option.value ~default:0. (List.assoc_opt op weights) in
        max base 0.)
      ops
  in
  (* Weighted share of each class: weight × population. *)
  let shares = Array.mapi (fun i pop -> w.(i) *. float_of_int pop) pops in
  let all_zero = Array.for_all (fun s -> s = 0.) shares in
  let shares =
    if all_zero then Array.map float_of_int pops  (* degrade to proportional *)
    else shares
  in
  let quota = ref (Stats.largest_remainder ~total shares) in
  (* Cap and redistribute until stable. *)
  let continue = ref true in
  while !continue do
    continue := false;
    let q = !quota in
    let overflow = ref 0 in
    Array.iteri
      (fun i qi ->
        if qi > pops.(i) then begin
          overflow := !overflow + (qi - pops.(i));
          q.(i) <- pops.(i)
        end)
      (Array.copy q);
    if !overflow > 0 then begin
      (* Spread the overflow over classes with spare capacity,
         proportionally to their shares. *)
      let spare = Array.mapi (fun i qi -> pops.(i) - qi) q in
      let spare_shares =
        Array.mapi (fun i s -> if spare.(i) > 0 then max s 1e-9 else 0.) shares
      in
      if Array.exists (fun s -> s > 0.) spare_shares then begin
        let extra = Stats.largest_remainder ~total:!overflow spare_shares in
        Array.iteri (fun i e -> q.(i) <- q.(i) + e) extra;
        continue := true
      end
    end;
    quota := q
  done;
  Array.to_list (Array.mapi (fun i qi -> (ops.(i), min qi pops.(i))) !quota)

let quotas strategy populations ~total =
  match strategy with
  | Random_uniform ->
    allocate (List.map (fun (op, _) -> (op, 1.)) populations) populations total
  | Operator_weighted weights -> allocate weights populations total

let sample prng strategy mutants ~rate =
  let total = sample_size ~rate (List.length mutants) in
  match strategy with
  | Random_uniform ->
    let arr = Array.of_list mutants in
    let chosen = Prng.sample_without_replacement prng total arr in
    let keep = Hashtbl.create total in
    Array.iter (fun (m : Mutant.t) -> Hashtbl.replace keep m.id ()) chosen;
    List.filter (fun (m : Mutant.t) -> Hashtbl.mem keep m.id) mutants
  | Operator_weighted _ ->
    let populations =
      List.filter (fun (_, n) -> n > 0) (Mutsamp_mutation.Generate.count_by_operator mutants)
    in
    let alloc = quotas strategy populations ~total in
    let keep = Hashtbl.create total in
    List.iter
      (fun (op, n) ->
        let pool =
          Array.of_list (List.filter (fun (m : Mutant.t) -> Operator.equal m.op op) mutants)
        in
        let chosen = Prng.sample_without_replacement prng n pool in
        Array.iter (fun (m : Mutant.t) -> Hashtbl.replace keep m.id ()) chosen)
      alloc;
    List.filter (fun (m : Mutant.t) -> Hashtbl.mem keep m.id) mutants
