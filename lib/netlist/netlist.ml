type t = {
  name : string;
  gates : Gate.t array;
  input_nets : int array;
  output_list : (string * int) array;
  dff_nets : int array;
}

exception Lint_error of string

(* A statically allocated gate to fill a gate array before its slots
   are written. [Array.init] or [Array.map] would seed an array longer
   than the minor heap's block limit with a freshly allocated gate,
   which forces a minor collection per netlist. *)
let placeholder = { Gate.kind = Gate.Buf; fanins = [||] }

let lint_fail fmt = Printf.ksprintf (fun msg -> raise (Lint_error msg)) fmt

let input_names t =
  Array.map
    (fun net ->
      match t.gates.(net).Gate.kind with
      | Gate.Pi name -> name
      | _ -> assert false)
    t.input_nets

let port_names t = (input_names t, Array.map fst t.output_list)

let num_gates t = Array.length t.gates

let is_logic (kind : Gate.kind) =
  match kind with
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor -> true

let num_logic_gates t =
  Array.fold_left (fun acc (g : Gate.t) -> if is_logic g.kind then acc + 1 else acc) 0 t.gates

let num_dffs t = Array.length t.dff_nets

let fanouts t =
  let fo = Array.make (Array.length t.gates) [] in
  Array.iteri
    (fun i (g : Gate.t) -> Array.iter (fun f -> fo.(f) <- i :: fo.(f)) g.fanins)
    t.gates;
  Array.map List.rev fo

(* Whether every combinational gate reads only lower-numbered nets, as
   the builder creates them (and the sweep keeps them): then net order
   is a topological order and no combinational cycle exists. *)
let in_net_order t =
  let ordered = ref true and i = ref 0 in
  while !ordered && !i < Array.length t.gates do
    let g = t.gates.(!i) in
    if is_logic g.kind then
      for k = 0 to Array.length g.fanins - 1 do
        if g.fanins.(k) >= !i then ordered := false
      done;
    incr i
  done;
  !ordered

let lint t =
  let n = Array.length t.gates in
  for i = 0 to n - 1 do
    let g = t.gates.(i) in
    if Array.length g.fanins <> Gate.arity g.kind then
      lint_fail "%s: gate %d (%s) has %d fanins, expected %d" t.name i
        (Gate.kind_name g.kind) (Array.length g.fanins) (Gate.arity g.kind);
    for k = 0 to Array.length g.fanins - 1 do
      let f = g.fanins.(k) in
      if f < 0 || f >= n then lint_fail "%s: gate %d fanin %d out of range" t.name i f
    done
  done;
  Array.iter
    (fun (name, net) ->
      if net < 0 || net >= n then lint_fail "%s: output %s drives bad net %d" t.name name net)
    t.output_list;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then lint_fail "%s: duplicate output %s" t.name name;
      Hashtbl.add seen name ())
    t.output_list;
  (* Combinational cycle detection: DFS over comb gates, DFF fanins are
     cut points. 0 = unvisited, 1 = on stack, 2 = done. A netlist in
     net order has no cycle to find. *)
  if not (in_net_order t) then begin
    let mark = Array.make n 0 in
    let rec dfs i =
      if mark.(i) = 1 then lint_fail "%s: combinational cycle through net %d" t.name i;
      if mark.(i) = 0 then begin
        mark.(i) <- 1;
        if is_logic t.gates.(i).Gate.kind then Array.iter dfs t.gates.(i).Gate.fanins;
        mark.(i) <- 2
      end
    in
    for i = 0 to n - 1 do dfs i done
  end

module Builder = struct
  (* Each gate is one int, in a growable array indexed by net id: its
     kind code in the low 4 bits, then its first and second fanin, each
     stored plus one in a [field]-bit slot (0 where the kind has none,
     and on a flip-flop whose D pin is not connected yet). Nothing in
     the array is a pointer, so writes need no barrier and nothing in
     it is promoted by the GC. The packed word is also the gate's
     structural-hash key. Each [Gate.t] is allocated once, by
     [finalize]. The builder never creates a [Buf]: [buf] returns its
     operand. *)
  let pi = 0
  let not_code = 1
  (* 2 .. 7: And, Or, Nand, Nor, Xor, Xnor, as [code] *)
  let const0_code = 8
  let const1_code = 9
  let dff0_code = 10
  let dff1_code = 11

  let code = function
    | Gate.Not -> not_code
    | Gate.And -> 2
    | Gate.Or -> 3
    | Gate.Nand -> 4
    | Gate.Nor -> 5
    | Gate.Xor -> 6
    | Gate.Xnor -> 7
    | Gate.Pi _ | Gate.Const _ | Gate.Buf | Gate.Dff _ -> assert false

  let kind_of_code = function
    | 1 -> Gate.Not
    | 2 -> Gate.And
    | 3 -> Gate.Or
    | 4 -> Gate.Nand
    | 5 -> Gate.Nor
    | 6 -> Gate.Xor
    | 7 -> Gate.Xnor
    | 8 -> Gate.Const false
    | 9 -> Gate.Const true
    | 10 -> Gate.Dff false
    | 11 -> Gate.Dff true
    | _ -> assert false

  (* 4 + 29 + 29 bits: a non-negative 63-bit int. *)
  let field = 29
  let max_nets = (1 lsl field) - 1
  let pack code f0 f1 = code lor ((f0 + 1) lsl 4) lor ((f1 + 1) lsl (4 + field))
  let code_of w = w land 15
  let fanin0 w = ((w lsr 4) land ((1 lsl field) - 1)) - 1
  let fanin1 w = (w lsr (4 + field)) - 1

  type t = {
    bname : string;
    mutable count : int;
    mutable gates : int array;  (* packed, per net *)
    mutable table : int array;
        (* open addressing over net ids, keyed by their packed gates;
           -1 = empty *)
    mutable used : int;  (* nets in [table] *)
    mutable const0 : int;  (* -1 until created *)
    mutable const1 : int;
    mutable input_order : int list;  (* reverse order *)
    mutable input_names : string list;  (* reverse order *)
    input_names_seen : (string, unit) Hashtbl.t;
    mutable outputs : (string * int) list;  (* reverse order *)
    output_names_seen : (string, unit) Hashtbl.t;
    mutable dffs : int list;  (* reverse order *)
  }

  (* Both arrays start at 256 words, the largest block the minor heap
     takes; a builder that needs more grows them by doubling. *)
  let initial = 256

  let create bname =
    {
      bname;
      count = 0;
      gates = Array.make initial 0;
      table = Array.make initial (-1);
      used = 0;
      const0 = -1;
      const1 = -1;
      input_order = [];
      input_names = [];
      input_names_seen = Hashtbl.create 16;
      outputs = [];
      output_names_seen = Hashtbl.create 16;
      dffs = [];
    }

  let check_net b i =
    if i < 0 || i >= b.count then invalid_arg "Builder: net id out of range"

  let push b w =
    let id = b.count in
    if id >= max_nets then invalid_arg "Builder: too many nets for the packed gate";
    if id >= Array.length b.gates then begin
      let bigger = Array.make (2 * id) 0 in
      Array.blit b.gates 0 bigger 0 id;
      b.gates <- bigger
    end;
    b.gates.(id) <- w;
    b.count <- id + 1;
    id

  (* First slot of [w]'s probe sequence in [b]'s table (a power of two
     long). *)
  let home b w =
    let h = w * 0x9e3779b97f4a7c1 in
    (h lxor (h lsr 31)) land (Array.length b.table - 1)

  (* The slot holding the net of gate [w], or the empty slot where it
     would go. *)
  let rec find b w i =
    let net = b.table.(i) in
    if net = -1 || b.gates.(net) = w then i
    else find b w ((i + 1) land (Array.length b.table - 1))

  (* Doubles the table, which is kept at most three quarters full. *)
  let rehash b =
    let old = b.table in
    b.table <- Array.make (2 * Array.length old) (-1);
    Array.iter
      (fun net -> if net <> -1 then b.table.(find b b.gates.(net) (home b b.gates.(net))) <- net)
      old

  (* The net of the gate [code a c], created if no such gate exists. *)
  let hashed b code a c =
    let w = pack code a c in
    let i = find b w (home b w) in
    if b.table.(i) <> -1 then b.table.(i)
    else begin
      let id = push b w in
      b.table.(i) <- id;
      b.used <- b.used + 1;
      if 4 * b.used > 3 * Array.length b.table then rehash b;
      id
    end

  let input b name =
    (* One hash per name: a duplicate leaves the table's size as it was. *)
    let seen = Hashtbl.length b.input_names_seen in
    Hashtbl.replace b.input_names_seen name ();
    if Hashtbl.length b.input_names_seen = seen then
      invalid_arg ("Builder.input: duplicate input " ^ name);
    let id = push b (pack pi (-1) (-1)) in
    b.input_order <- id :: b.input_order;
    b.input_names <- name :: b.input_names;
    id

  let const b v =
    if v then begin
      if b.const1 < 0 then b.const1 <- push b (pack const1_code (-1) (-1));
      b.const1
    end
    else begin
      if b.const0 < 0 then b.const0 <- push b (pack const0_code (-1) (-1));
      b.const0
    end

  (* [Some v] when net [i] (in range) is the constant [v]. *)
  let const_of b i =
    if i = b.const0 then Some false else if i = b.const1 then Some true else None

  (* Hash-consed unary gate with local folding. *)
  let unary b kind a =
    check_net b a;
    match kind, const_of b a with
    | Gate.Buf, _ -> a
    | Gate.Not, Some v -> const b (not v)
    | Gate.Not, None when code_of b.gates.(a) = not_code ->
      (* not (not x) = x *)
      fanin0 b.gates.(a)
    | _ -> hashed b (code kind) a (-1)

  let not_ b a = unary b Gate.Not a
  let buf b a = unary b Gate.Buf a

  (* Constant folding and idempotence for the binary gates; anything
     left is hash-consed with sorted operands. *)
  let binary b kind a0 a1 =
    let a = if a0 <= a1 then a0 else a1 and c = if a0 <= a1 then a1 else a0 in
    check_net b a;
    check_net b c;
    match kind, const_of b a, const_of b c with
    | Gate.And, Some false, _ | Gate.And, _, Some false -> const b false
    | Gate.And, Some true, _ -> c
    | Gate.And, _, Some true -> a
    | Gate.Or, Some true, _ | Gate.Or, _, Some true -> const b true
    | Gate.Or, Some false, _ -> c
    | Gate.Or, _, Some false -> a
    | Gate.Xor, Some false, _ -> c
    | Gate.Xor, _, Some false -> a
    | Gate.Xor, Some true, _ -> not_ b c
    | Gate.Xor, _, Some true -> not_ b a
    | Gate.Nand, Some false, _ | Gate.Nand, _, Some false -> const b true
    | Gate.Nand, Some true, _ -> not_ b c
    | Gate.Nand, _, Some true -> not_ b a
    | Gate.Nor, Some true, _ | Gate.Nor, _, Some true -> const b false
    | Gate.Nor, Some false, _ -> not_ b c
    | Gate.Nor, _, Some false -> not_ b a
    | Gate.Xnor, Some true, _ -> c
    | Gate.Xnor, _, Some true -> a
    | Gate.Xnor, Some false, _ -> not_ b c
    | Gate.Xnor, _, Some false -> not_ b a
    | (Gate.And | Gate.Or), None, None when a = c -> a
    | Gate.Xor, None, None when a = c -> const b false
    | Gate.Xnor, None, None when a = c -> const b true
    | (Gate.Nand | Gate.Nor), None, None when a = c -> not_ b a
    | _ -> hashed b (code kind) a c

  let and_ b x y = binary b Gate.And x y
  let or_ b x y = binary b Gate.Or x y
  let nand_ b x y = binary b Gate.Nand x y
  let nor_ b x y = binary b Gate.Nor x y
  let xor_ b x y = binary b Gate.Xor x y
  let xnor_ b x y = binary b Gate.Xnor x y

  let mux b ~sel ~t1 ~t0 =
    if t1 = t0 then t1
    else or_ b (and_ b sel t1) (and_ b (not_ b sel) t0)

  let dff b ~init =
    let id = push b (pack (if init then dff1_code else dff0_code) (-1) (-1)) in
    b.dffs <- id :: b.dffs;
    id

  let connect_dff b q ~d =
    check_net b q;
    let code = code_of b.gates.(q) in
    if code <> dff0_code && code <> dff1_code then
      invalid_arg "Builder.connect_dff: not a flip-flop";
    if fanin0 b.gates.(q) <> -1 then invalid_arg "Builder.connect_dff: already connected";
    if d < 0 || d >= b.count then invalid_arg "Builder.connect_dff: bad D net";
    b.gates.(q) <- pack code d (-1)

  let output b name net =
    if Hashtbl.mem b.output_names_seen name then
      invalid_arg ("Builder.output: duplicate output " ^ name);
    if net < 0 || net >= b.count then invalid_arg "Builder.output: bad net";
    Hashtbl.add b.output_names_seen name ();
    b.outputs <- (name, net) :: b.outputs

  let finalize b =
    let gates = Array.make b.count placeholder in
    let names = ref (List.rev b.input_names) in
    for i = 0 to b.count - 1 do
      let w = b.gates.(i) in
      let kind =
        if code_of w <> pi then kind_of_code (code_of w)
        else
          match !names with
          | name :: rest ->
            names := rest;
            Gate.Pi name
          | [] -> assert false
      in
      let fanins =
        match Gate.arity kind with
        | 0 -> [||]
        | 1 -> [| fanin0 w |]
        | _ -> [| fanin0 w; fanin1 w |]
      in
      (match kind with
       | Gate.Dff _ when fanin0 w = -1 ->
         lint_fail "%s: flip-flop net %d has no D connection" b.bname i
       | _ -> ());
      gates.(i) <- { Gate.kind; fanins }
    done;
    let nl =
      {
        name = b.bname;
        gates;
        input_nets = Array.of_list (List.rev b.input_order);
        output_list = Array.of_list (List.rev b.outputs);
        dff_nets = Array.of_list (List.rev b.dffs);
      }
    in
    lint nl;
    nl
end
