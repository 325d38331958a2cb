module Prng = Mutsamp_util.Prng
module Packvec = Mutsamp_util.Packvec

let max_lfsr_width = 48

(* Primitive-polynomial tap tables (XAPP 052 / standard LFSR tables).
   Taps are 1-based bit positions; feedback is the XNOR/XOR of the
   tapped bits. Using XOR with a non-zero seed gives period 2^n - 1. *)
let taps_table =
  [|
    [];  (* width 0: unused *)
    [];  (* width 1: unused *)
    [ 2; 1 ];
    [ 3; 2 ];
    [ 4; 3 ];
    [ 5; 3 ];
    [ 6; 5 ];
    [ 7; 6 ];
    [ 8; 6; 5; 4 ];
    [ 9; 5 ];
    [ 10; 7 ];
    [ 11; 9 ];
    [ 12; 6; 4; 1 ];
    [ 13; 4; 3; 1 ];
    [ 14; 5; 3; 1 ];
    [ 15; 14 ];
    [ 16; 15; 13; 4 ];
    [ 17; 14 ];
    [ 18; 11 ];
    [ 19; 6; 2; 1 ];
    [ 20; 17 ];
    [ 21; 19 ];
    [ 22; 21 ];
    [ 23; 18 ];
    [ 24; 23; 22; 17 ];
    [ 25; 22 ];
    [ 26; 6; 2; 1 ];
    [ 27; 5; 2; 1 ];
    [ 28; 25 ];
    [ 29; 27 ];
    [ 30; 6; 4; 1 ];
    [ 31; 28 ];
    [ 32; 22; 2; 1 ];
    [ 33; 20 ];
    [ 34; 27; 2; 1 ];
    [ 35; 33 ];
    [ 36; 25 ];
    [ 37; 5; 4; 3; 2; 1 ];
    [ 38; 6; 5; 1 ];
    [ 39; 35 ];
    [ 40; 38; 21; 19 ];
    [ 41; 38 ];
    [ 42; 41; 20; 19 ];
    [ 43; 42; 38; 37 ];
    [ 44; 43; 18; 17 ];
    [ 45; 44; 42; 41 ];
    [ 46; 45; 26; 25 ];
    [ 47; 42 ];
    [ 48; 47; 21; 20 ];
  |]

let lfsr_taps width =
  if width < 2 || width > max_lfsr_width then
    invalid_arg (Printf.sprintf "Prpg: LFSR width %d not in 2..%d" width max_lfsr_width);
  taps_table.(width)

let lfsr_next width taps state =
  let fb =
    List.fold_left (fun acc tap -> acc lxor ((state lsr (tap - 1)) land 1)) 0 taps
  in
  ((state lsl 1) lor fb) land ((1 lsl width) - 1)

let lfsr_sequence ~width ~seed ~length =
  let taps = lfsr_taps width in
  let state = ref (if seed land ((1 lsl width) - 1) = 0 then 1 else seed land ((1 lsl width) - 1)) in
  Array.init length (fun _ ->
      let s = !state in
      state := lfsr_next width taps s;
      s)

let lfsr_period_is_maximal ~width =
  let taps = lfsr_taps width in
  let start = 1 in
  let rec iterate state count =
    let next = lfsr_next width taps state in
    if next = start then count + 1
    else if count > 1 lsl width then count  (* safety: cycle without return *)
    else iterate next (count + 1)
  in
  iterate start 0 = (1 lsl width) - 1

(* Widths up to 62 keep the historical one-or-two-draw stream (seeded
   experiments stay reproducible); wider patterns draw per bit. *)
let uniform_sequence prng ~bits ~length =
  if bits < 1 then invalid_arg "Prpg.uniform_sequence: bits not positive";
  if bits <= 62 then
    let draw () =
      if bits <= 30 then Prng.int prng (1 lsl bits)
      else (Prng.int prng (1 lsl (bits - 30)) lsl 30) lor Prng.int prng (1 lsl 30)
    in
    Array.init length (fun _ -> Packvec.of_code ~width:bits (draw ()))
  else Array.init length (fun _ -> Packvec.init bits (fun _ -> Prng.bool prng))
