let word_bits = 63

type t = { width : int; words : int array }

let words_for width = (width + word_bits - 1) / word_bits

let last_mask width =
  let r = width mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

let create width =
  if width < 1 then invalid_arg "Packvec.create: width < 1";
  { width; words = Array.make (words_for width) 0 }

let width t = t.width
let words t = t.words

let copy t = { t with words = Array.copy t.words }

let check_index t i op =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Packvec.%s: index %d out of range 0..%d" op i (t.width - 1))

let get t i =
  check_index t i "get";
  (t.words.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

let set t i b =
  check_index t i "set";
  let j = i / word_bits and k = i mod word_bits in
  if b then t.words.(j) <- t.words.(j) lor (1 lsl k)
  else t.words.(j) <- t.words.(j) land lnot (1 lsl k)

let init width f =
  let t = create width in
  for i = 0 to width - 1 do
    if f i then set t i true
  done;
  t

let equal a b =
  a.width = b.width
  && (let n = Array.length a.words in
      let rec go j = j >= n || (a.words.(j) = b.words.(j) && go (j + 1)) in
      go 0)

let of_code ~width code =
  if code < 0 then invalid_arg "Packvec.of_code: negative code";
  if width < 1 then invalid_arg "Packvec.of_code: width < 1";
  let t = create width in
  t.words.(0) <- code land (if width >= word_bits then -1 else last_mask width);
  (* OCaml ints carry at most 62 payload bits, so the code never reaches
     word 1; widths beyond that just leave the upper words zero. *)
  t

let to_code t =
  if t.width > 62 then
    invalid_arg "Packvec.to_code: width exceeds 62-bit integer codes";
  t.words.(0)

let random prng width =
  let t = create width in
  let n = Array.length t.words in
  for j = 0 to n - 1 do
    (* Int64.to_int wraps modulo 2^63: a full random 63-bit word. *)
    t.words.(j) <- Int64.to_int (Prng.bits64 prng)
  done;
  t.words.(n - 1) <- t.words.(n - 1) land last_mask width;
  t

let to_string t =
  let buf = Buffer.create (t.width + 4) in
  Buffer.add_string buf (string_of_int t.width);
  Buffer.add_string buf "'b";
  for i = t.width - 1 downto 0 do
    Buffer.add_char buf (if get t i then '1' else '0')
  done;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
