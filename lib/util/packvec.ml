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
let num_words t = Array.length t.words

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

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let init width f =
  let t = create width in
  for i = 0 to width - 1 do
    if f i then set t i true
  done;
  t

let is_zero t = Array.for_all (fun w -> w = 0) t.words

let equal a b =
  a.width = b.width
  && (let n = Array.length a.words in
      let rec go j = j >= n || (a.words.(j) = b.words.(j) && go (j + 1)) in
      go 0)

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c
  else begin
    (* Unsigned word compare, most significant word first; the sign bit
       of a 63-bit OCaml int is never set by a masked word, so plain
       compare is safe. *)
    let rec go j = if j < 0 then 0 else
        let c = Stdlib.compare a.words.(j) b.words.(j) in
        if c <> 0 then c else go (j - 1)
    in
    go (Array.length a.words - 1)
  end

(* 16-entry nibble table keeps popcount branch-free per 4 bits. *)
let nibble = [| 0; 1; 1; 2; 1; 2; 2; 3; 1; 2; 2; 3; 2; 3; 3; 4 |]

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w lsr 4) (acc + nibble.(w land 0xf)) in
  (* Shift once first so the sign bit cannot keep the loop spinning. *)
  go ((w lsr 4) land max_int) nibble.(w land 0xf)

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let lowest_bit w =
  let rec go k = if (w lsr k) land 1 = 1 then k else go (k + 1) in
  go 0

let first_set t =
  let n = Array.length t.words in
  let rec go j =
    if j >= n then None
    else if t.words.(j) = 0 then go (j + 1)
    else Some ((j * word_bits) + lowest_bit t.words.(j))
  in
  go 0

let first_diff a b =
  if a.width <> b.width then invalid_arg "Packvec.first_diff: width mismatch";
  let n = Array.length a.words in
  let rec go j =
    if j >= n then None
    else begin
      let d = a.words.(j) lxor b.words.(j) in
      if d = 0 then go (j + 1) else Some ((j * word_bits) + lowest_bit d)
    end
  in
  go 0

let blit ~src ~dst =
  if src.width <> dst.width then invalid_arg "Packvec.blit: width mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check_same a b op =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Packvec.%s: width mismatch (%d vs %d)" op a.width b.width)

let map2_into op a b ~into =
  let n = Array.length a.words in
  for j = 0 to n - 1 do
    into.words.(j) <- op a.words.(j) b.words.(j)
  done

let logand_into a b ~into =
  check_same a b "logand_into"; check_same a into "logand_into";
  map2_into ( land ) a b ~into

let logor_into a b ~into =
  check_same a b "logor_into"; check_same a into "logor_into";
  map2_into ( lor ) a b ~into

let logxor_into a b ~into =
  check_same a b "logxor_into"; check_same a into "logxor_into";
  map2_into ( lxor ) a b ~into

let lognot_into a ~into =
  check_same a into "lognot_into";
  let n = Array.length a.words in
  for j = 0 to n - 1 do
    into.words.(j) <- lnot a.words.(j)
  done;
  into.words.(n - 1) <- into.words.(n - 1) land last_mask a.width

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
