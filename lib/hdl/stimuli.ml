module Bitvec = Mutsamp_util.Bitvec
module Prng = Mutsamp_util.Prng

let input_bits d =
  List.fold_left (fun acc (dc : Ast.decl) -> acc + dc.width) 0 (Ast.inputs d)

(* Uniform w-bit value; widths above 30 are drawn in two halves so the
   PRNG bound always fits a native int. *)
let rand_bits prng w =
  if w <= 30 then Prng.int prng (1 lsl w)
  else (Prng.int prng (1 lsl (w - 30)) lsl 30) lor Prng.int prng (1 lsl 30)

(* Ports up to 62 bits keep the historical single-draw stream (seeded
   experiments stay reproducible); wider ports fall back to per-bit
   draws. *)
let rand_bv prng w =
  if w <= 62 then Bitvec.make ~width:w (rand_bits prng w)
  else Bitvec.init w (fun _ -> Prng.bool prng)

let random prng d =
  List.map
    (fun (dc : Ast.decl) -> (dc.name, rand_bv prng dc.width))
    (Ast.inputs d)

let random_sequence prng d n = List.init n (fun _ -> random prng d)

let of_code d code =
  let bits = input_bits d in
  if bits > 62 then invalid_arg "Stimuli.of_code: too many input bits";
  if code < 0 || (bits < 62 && code >= 1 lsl bits) then
    invalid_arg "Stimuli.of_code: code out of range";
  let rec decode acc shift = function
    | [] -> List.rev acc
    | (dc : Ast.decl) :: rest ->
      let v = (code lsr shift) land ((1 lsl dc.width) - 1) in
      decode ((dc.name, Bitvec.make ~width:dc.width v) :: acc) (shift + dc.width) rest
  in
  decode [] 0 (Ast.inputs d)
