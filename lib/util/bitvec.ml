(* Multi-word unsigned bit vectors on the Packvec limb layout: 63
   payload bits per native-int limb, LSB first. A limb may use bit 62
   (the OCaml sign bit), so unsigned limb comparison flips the sign bit
   and arithmetic recovers carries with the MSB-majority identity. *)

let limb_bits = Packvec.word_bits

type t = { w : int; words : int array }

let limbs_for w = Packvec.words_for w
let last_mask w = Packvec.last_mask w

let mask_last t =
  let n = Array.length t.words in
  t.words.(n - 1) <- t.words.(n - 1) land last_mask t.w;
  t

let make ~width v =
  if width < 1 then
    invalid_arg (Printf.sprintf "Bitvec.make: width %d not positive" width);
  if v < 0 then invalid_arg "Bitvec.make: negative value";
  let words = Array.make (limbs_for width) 0 in
  words.(0) <- v;
  mask_last { w = width; words }

let zero width = make ~width 0

let ones width =
  let words = Array.make (limbs_for width) (-1) in
  mask_last { w = width; words }

let width t = t.w

let to_int t =
  if t.w > 62 then invalid_arg "Bitvec.to_int: width exceeds 62-bit integers";
  t.words.(0)

let equal a b = a.w = b.w && a.words = b.words

(* Unsigned limb compare: flip the sign bit so bit 62 orders last. *)
let ucmp x y = Stdlib.compare (x lxor min_int) (y lxor min_int)

let compare a b =
  let c = Stdlib.compare a.w b.w in
  if c <> 0 then c
  else begin
    let rec go j =
      if j < 0 then 0
      else
        let c = ucmp a.words.(j) b.words.(j) in
        if c <> 0 then c else go (j - 1)
    in
    go (Array.length a.words - 1)
  end

let check_same a b op =
  if a.w <> b.w then
    invalid_arg (Printf.sprintf "Bitvec.%s: width mismatch (%d vs %d)" op a.w b.w)

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.bit: index out of range";
  (t.words.(i / limb_bits) lsr (i mod limb_bits)) land 1 = 1

let set_bit t i b =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.set_bit: index out of range";
  let words = Array.copy t.words in
  let j = i / limb_bits and k = i mod limb_bits in
  if b then words.(j) <- words.(j) lor (1 lsl k)
  else words.(j) <- words.(j) land lnot (1 lsl k);
  { t with words }

let add a b =
  check_same a b "add";
  let n = Array.length a.words in
  let words = Array.make n 0 in
  let carry = ref 0 in
  for j = 0 to n - 1 do
    let x = a.words.(j) and y = b.words.(j) in
    let s = x + y + !carry in
    words.(j) <- s;
    (* Carry out of a full 63-bit add: majority of the operand MSBs and
       the complemented sum MSB. *)
    carry := ((x land y) lor ((x lor y) land lnot s)) lsr (limb_bits - 1)
  done;
  mask_last { a with words }

let sub a b =
  check_same a b "sub";
  let n = Array.length a.words in
  let words = Array.make n 0 in
  let borrow = ref 0 in
  for j = 0 to n - 1 do
    let x = a.words.(j) and y = b.words.(j) in
    let d = x - y - !borrow in
    words.(j) <- d;
    borrow := ((lnot x land y) lor ((lnot x lor y) land d)) lsr (limb_bits - 1)
  done;
  mask_last { a with words }

let map2 op a b =
  let words = Array.init (Array.length a.words) (fun j -> op a.words.(j) b.words.(j)) in
  { a with words }

let logand a b = check_same a b "logand"; map2 ( land ) a b
let logor a b = check_same a b "logor"; map2 ( lor ) a b
let logxor a b = check_same a b "logxor"; map2 ( lxor ) a b

let lognot a =
  mask_last { a with words = Array.map lnot a.words }

let lt a b = check_same a b "lt"; compare a b < 0
let le a b = check_same a b "le"; compare a b <= 0

let init width f =
  if width < 1 then invalid_arg "Bitvec.init: width not positive";
  let words = Array.make (limbs_for width) 0 in
  for i = 0 to width - 1 do
    if f i then words.(i / limb_bits) <- words.(i / limb_bits) lor (1 lsl (i mod limb_bits))
  done;
  { w = width; words }

let slice t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.w then invalid_arg "Bitvec.slice: bad range";
  init (hi - lo + 1) (fun i -> bit t (lo + i))

let concat hi lo =
  init (hi.w + lo.w) (fun i -> if i < lo.w then bit lo i else bit hi (i - lo.w))

let resize t w =
  if w < 1 then invalid_arg "Bitvec.resize: bad width";
  init w (fun i -> i < t.w && bit t i)

let to_string t =
  let buf = Buffer.create (t.w + 4) in
  Buffer.add_string buf (string_of_int t.w);
  Buffer.add_string buf "'b";
  for i = t.w - 1 downto 0 do
    Buffer.add_char buf (if bit t i then '1' else '0')
  done;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
