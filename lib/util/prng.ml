(* The 64-bit state lives in 8 bytes, read and written unboxed: a
   mutable [int64] field would box every new state. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* Advance the state and mix it to a well-distributed 64-bit output
   (the splitmix64 finaliser). Inlined into every draw below, so the
   value stays unboxed until it becomes an [int], [bool] or [float]. *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* A power of two divides 2^62: the rejection test below never
       fires and [v mod bound] is [v land (bound - 1)]. *)
    Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land (bound - 1)
  else
    (* Rejection sampling on the top 62 bits keeps the distribution
       exactly uniform for any bound. *)
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
      let r = v mod bound in
      if v - r > mask - bound + 1 then draw () else r
    in
    draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v *. 0x1.0p-53

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t = function
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | items ->
    let arr = Array.of_list items in
    arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let copy = Array.copy arr in
  (* Partial Fisher–Yates: after k swaps the prefix is a uniform sample. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k
