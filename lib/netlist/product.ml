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

let search ~max_states inp a b =
  if Program.input_bits a <> inp.width || Program.input_bits b <> inp.width
     || Program.output_bits a <> Program.output_bits b
  then invalid_arg "Product.search: programs do not fit the inputs or each other";
  let va = Array.make (Program.words a) 0 and vb = Array.make (Program.words b) 0 in
  Program.reset a va;
  Program.reset b vb;
  (* The flip-flop slots, [a]'s then [b]'s. A joint state is their bits
     in one lane, packed into a string, which a table hashes whole. Each
     lane's key is built in [buf]; only a state the table keeps is
     copied out of it. *)
  let flops =
    let sa, na = Program.state_slots a and sb, nb = Program.state_slots b in
    Array.append (Array.init na (fun f -> (va, sa + f))) (Array.init nb (fun f -> (vb, sb + f)))
  in
  let buf = Bytes.create ((Array.length flops + 7) / 8) in
  let key lane =
    Bytes.fill buf 0 (Bytes.length buf) '\000';
    for i = 0 to Array.length flops - 1 do
      let v, s = flops.(i) in
      if (v.(s) lsr lane) land 1 = 1 then
        Bytes.set_uint8 buf (i / 8) (Bytes.get_uint8 buf (i / 8) lor (1 lsl (i mod 8)))
    done
  in
  (* Every lane of both programs in joint state [k]. *)
  let load k =
    Array.iteri
      (fun i (v, s) ->
        v.(s) <- (if Char.code k.[i / 8] land (1 lsl (i mod 8)) = 0 then 0 else Bitsim.all_ones))
      flops
  in
  let expected = Array.make (Program.output_bits a) 0 in
  key 0;
  let initial = Bytes.to_string buf in
  (* Each visited state with the codes that reach it, latest first. *)
  let visited = Hashtbl.create (min max_states 1024) in
  Hashtbl.replace visited initial [];
  let queue = Queue.create () in
  Queue.push initial queue;
  let exception Found of int list in
  let exception Full in
  let outcome =
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
            key lane;
            if not (Hashtbl.mem visited (Bytes.unsafe_to_string buf)) then begin
              if Hashtbl.length visited >= max_states then raise Full;
              let next = Bytes.to_string buf in
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
  in
  (outcome, Hashtbl.length visited)
