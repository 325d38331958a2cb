let lanes = Program.lanes

(* Codes [63k, 63k + 63) take the [width] words at [k * width]. *)
type inputs = { codes : int; width : int; words : int array }

let inputs ~codes ~width set =
  let words = Array.make ((codes + lanes - 1) / lanes * width) 0 in
  for code = 0 to codes - 1 do
    let base = code / lanes * width in
    set code (fun k -> words.(base + k) <- words.(base + k) lor (1 lsl (code mod lanes)))
  done;
  { codes; width; words }

type outcome = Equal | Differs of int list | Exhausted

let search inp a b =
  if Program.input_bits a <> inp.width || Program.input_bits b <> inp.width
     || Program.output_bits a <> Program.output_bits b
  then invalid_arg "Product.search: programs do not fit the inputs or each other";
  let va = Array.make (Program.words a) 0 and vb = Array.make (Program.words b) 0 in
  Program.reset a va;
  Program.reset b vb;
  (* The flip-flop slots, [a]'s then [b]'s. A joint state is their bits
     in one lane, packed into a string, which a table hashes whole. *)
  let flops =
    let sa, na = Program.state_slots a and sb, nb = Program.state_slots b in
    Array.append (Array.init na (fun f -> (va, sa + f))) (Array.init nb (fun f -> (vb, sb + f)))
  in
  let key lane =
    let k = Bytes.make ((Array.length flops + 7) / 8) '\000' in
    Array.iteri
      (fun i (v, s) ->
        if (v.(s) lsr lane) land 1 = 1 then
          Bytes.set_uint8 k (i / 8) (Bytes.get_uint8 k (i / 8) lor (1 lsl (i mod 8))))
      flops;
    Bytes.unsafe_to_string k
  in
  (* Every lane of both programs in joint state [k]. *)
  let load k =
    Array.iteri
      (fun i (v, s) ->
        v.(s) <- (if Char.code k.[i / 8] land (1 lsl (i mod 8)) = 0 then 0 else Bitsim.all_ones))
      flops
  in
  let expected = Array.make (Program.output_bits a) 0 in
  let initial = key 0 in
  (* Each visited state with the codes that reach it, latest first. *)
  let visited = Hashtbl.create 1024 in
  Hashtbl.replace visited initial [];
  let queue = Queue.create () in
  Queue.push initial queue;
  let exception Found of int list in
  let exception Full in
  try
    while not (Queue.is_empty queue) do
      let state = Queue.pop queue in
      let path = Hashtbl.find visited state in
      for chunk = 0 to ((inp.codes + lanes - 1) / lanes) - 1 do
        load state;
        Program.step a va inp.words (chunk * inp.width);
        Program.step b vb inp.words (chunk * inp.width);
        Program.outputs a va expected 0;
        let differ = Program.mismatch b vb expected 0 in
        let first = chunk * lanes in
        for lane = 0 to min lanes (inp.codes - first) - 1 do
          if (differ lsr lane) land 1 = 1 then raise (Found (List.rev ((first + lane) :: path)));
          let next = key lane in
          if not (Hashtbl.mem visited next) then begin
            if Hashtbl.length visited >= 65536 then raise Full;
            Hashtbl.replace visited next ((first + lane) :: path);
            Queue.push next queue
          end
        done
      done
    done;
    Equal
  with
  | Found codes -> Differs codes
  | Full -> Exhausted
