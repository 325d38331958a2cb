(* Tests for lib/mutation: operator set, mutant generation, kill engine,
   simulation-based equivalence. *)

module Bitvec = Mutsamp_util.Bitvec
module Ast = Mutsamp_hdl.Ast
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Operator = Mutsamp_mutation.Operator
module Mutant = Mutsamp_mutation.Mutant
module Generate = Mutsamp_mutation.Generate
module Kill = Mutsamp_mutation.Kill
module Equivalence = Mutsamp_mutation.Equivalence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.make ~width:w v
let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))

let and_gate_src =
  {|design and2 is
  input a : bit;
  input b : bit;
  output y : bit;
begin
  y := a and b;
end design;|}

let alu_src =
  {|design mini_alu is
  input a : unsigned(4);
  input b : unsigned(4);
  input op : bit;
  output y : unsigned(4);
  output eq : bit;
  const K : unsigned(4) := 5;
begin
  eq := a = b;
  if op = '1' then
    y := a + b;
  else
    y := a - b;
  end if;
  if a = K then
    y := 0;
  end if;
end design;|}

let counter_src =
  {|design counter is
  input en : bit;
  output q : unsigned(3);
  reg count : unsigned(3) := 0;
begin
  q := count;
  if en = '1' then
    count := count + 1;
  end if;
end design;|}

(* ------------------------------------------------------------------ *)
(* Operator                                                           *)
(* ------------------------------------------------------------------ *)

let test_operator_roundtrip () =
  List.iter
    (fun op ->
      match Operator.of_string (Operator.name op) with
      | Some op' -> check_bool "roundtrip" true (Operator.equal op op')
      | None -> Alcotest.fail "of_string failed")
    Operator.all

let test_operator_count () = check_int "ten operators" 10 (List.length Operator.all)

let test_operator_of_string_case_insensitive () =
  (match Operator.of_string "lor" with
   | Some Operator.LOR -> ()
   | _ -> Alcotest.fail "lowercase accepted");
  check_bool "unknown" true (Operator.of_string "XYZ" = None)

(* ------------------------------------------------------------------ *)
(* Generate                                                           *)
(* ------------------------------------------------------------------ *)

let test_generate_and_gate () =
  let d = parse and_gate_src in
  let ms = Generate.all d in
  check_bool "nonempty" true (List.length ms > 0);
  (* The single logical operator yields 5 LOR mutants. *)
  let lor_mutants = List.filter (fun (m : Mutant.t) -> m.op = Operator.LOR) ms in
  check_int "LOR count" 5 (List.length lor_mutants)

let test_generate_ids_sequential () =
  let ms = Generate.all (parse alu_src) in
  List.iteri (fun i (m : Mutant.t) -> check_int "id" i m.id) ms

let test_generate_all_elaborated () =
  let ms = Generate.all (parse alu_src) in
  List.iter
    (fun (m : Mutant.t) -> check_bool "elaborated" true (Check.is_elaborated m.design))
    ms

let test_generate_all_differ_from_original () =
  let d = parse alu_src in
  let ms = Generate.all d in
  List.iter
    (fun (m : Mutant.t) ->
      check_bool "differs" false (Ast.equal_design d m.design))
    ms

let test_generate_same_interface () =
  let d = parse alu_src in
  List.iter
    (fun (m : Mutant.t) ->
      check_bool "interface preserved" true (Equivalence.same_interface d m.design))
    (Generate.all d)

let test_generate_operator_coverage () =
  let ms = Generate.all (parse alu_src) in
  let count op =
    List.length (List.filter (fun (m : Mutant.t) -> Operator.equal m.op op) ms)
  in
  check_bool "AOR present" true (count Operator.AOR > 0);
  check_bool "ROR present" true (count Operator.ROR > 0);
  check_bool "VR present" true (count Operator.VR > 0);
  check_bool "CVR present" true (count Operator.CVR > 0);
  check_bool "VCR present" true (count Operator.VCR > 0);
  check_bool "CR present" true (count Operator.CR > 0);
  check_bool "SDL present" true (count Operator.SDL > 0);
  check_bool "UOI present" true (count Operator.UOI > 0)

let test_generate_uod_only_on_not () =
  (* No [not] in the ALU source, so no UOD mutants. *)
  let ms = Generate.all (parse alu_src) in
  check_int "no UOD" 0
    (List.length (List.filter (fun (m : Mutant.t) -> m.op = Operator.UOD) ms));
  let with_not =
    parse
      {|design n is input a : bit; output y : bit;
        begin y := not a; end design;|}
  in
  let ms = Generate.all with_not in
  check_int "one UOD" 1
    (List.length (List.filter (fun (m : Mutant.t) -> m.op = Operator.UOD) ms))

let test_generate_cr_only_with_constants () =
  (* A design whose only literals appear in comparisons still yields CR
     mutants from those literals. *)
  let ms = Generate.all (parse counter_src) in
  let cr = List.filter (fun (m : Mutant.t) -> m.op = Operator.CR) ms in
  check_bool "CR from literals" true (List.length cr > 0)

let test_for_operator_subset () =
  let d = parse alu_src in
  let all = Generate.all d in
  let vr = Generate.for_operator d Operator.VR in
  check_int "subset count matches"
    (List.length (List.filter (fun (m : Mutant.t) -> m.op = Operator.VR) all))
    (List.length vr);
  List.iter (fun (m : Mutant.t) -> check_bool "op" true (m.op = Operator.VR)) vr

let test_count_by_operator_total () =
  let ms = Generate.all (parse alu_src) in
  let counts = Generate.count_by_operator ms in
  check_int "ten entries" 10 (List.length counts);
  check_int "total matches"
    (List.length ms)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts)

let test_generate_rejects_unelaborated () =
  let raw = Mutsamp_robust.Error.ok_exn (Parser.design_result alu_src) in
  (try
     ignore (Generate.all raw);
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

(* Deterministic generation: two runs produce the same list. *)
let test_generate_deterministic () =
  let d = parse alu_src in
  let a = Generate.all d and b = Generate.all d in
  check_bool "same" true (a = b)

(* ------------------------------------------------------------------ *)
(* Kill                                                               *)
(* ------------------------------------------------------------------ *)

let stim2 a b = [ ("a", bv 1 a); ("b", bv 1 b) ]
let victims runner ?alive seq = List.map fst (Kill.kills_at runner ?alive seq)
let kills_mutant runner i seq = Kill.kills_at runner ~alive:[ i ] seq <> []

let test_kill_and_gate_lor () =
  let d = parse and_gate_src in
  let ms = Generate.for_operator d Operator.LOR in
  let runner = Kill.make d ms in
  (* 0,1 distinguishes AND from OR, XOR, NOR, ... for most mutants. *)
  let killed = victims runner [ stim2 0 1 ] in
  check_bool "some killed" true (List.length killed > 0);
  (* Applying all four input vectors kills every non-equivalent LOR
     mutant of a 2-input AND (all five alternatives differ). *)
  let all4 = [ [ stim2 0 0 ]; [ stim2 0 1 ]; [ stim2 1 0 ]; [ stim2 1 1 ] ] in
  let flags = Kill.killed_set runner all4 in
  Array.iter (fun k -> check_bool "all LOR killed" true k) flags

let test_kill_stops_early_is_consistent () =
  let d = parse and_gate_src in
  let ms = Generate.all d in
  let runner = Kill.make d ms in
  let seq = [ stim2 1 1; stim2 0 1 ] in
  let killed = victims runner seq in
  List.iter
    (fun i ->
      check_bool "single-mutant run agrees with the population run" true
        (List.mem i killed = kills_mutant runner i seq))
    (List.init (Kill.size runner) (fun i -> i))

let test_kill_alive_restriction () =
  let d = parse and_gate_src in
  let runner = Kill.make d (Generate.all d) in
  let seq = [ stim2 0 1 ] in
  let all_killed = victims runner seq in
  match all_killed with
  | [] -> Alcotest.fail "expected kills"
  | first :: _ ->
    let restricted = victims runner ~alive:[ first ] seq in
    check_bool "restricted" true (restricted = [ first ])

let test_kill_sequential_mutant () =
  let d = parse counter_src in
  let ms = Generate.all d in
  let runner = Kill.make d ms in
  (* A long enable burst distinguishes counting faults. *)
  let seq = List.init 8 (fun _ -> [ ("en", bv 1 1) ]) in
  let killed = victims runner seq in
  check_bool "many killed" true (List.length killed > Kill.size runner / 2)

let test_kills_at_cycles () =
  let d = parse counter_src in
  let runner = Kill.make d (Generate.all d) in
  let seq = List.init 6 (fun _ -> [ ("en", bv 1 1) ]) in
  let detections = Kill.kills_at runner seq in
  check_bool "some detections" true (detections <> []);
  List.iter
    (fun (i, c) ->
      check_bool "cycle in range" true (c >= 0 && c < 6);
      (* The truncated prefix up to the detection cycle also kills. *)
      let prefix = List.filteri (fun k _ -> k <= c) seq in
      check_bool "prefix kills" true (kills_mutant runner i prefix);
      (* One cycle less does not (first detection is minimal). *)
      if c > 0 then begin
        let shorter = List.filteri (fun k _ -> k < c) seq in
        check_bool "shorter misses" false (kills_mutant runner i shorter)
      end)
    detections

let test_kills_at_agrees_with_kills () =
  let d = parse and_gate_src in
  let runner = Kill.make d (Generate.all d) in
  let seq = [ stim2 1 0; stim2 1 1 ] in
  let flags = Kill.killed_set runner [ seq ] in
  Alcotest.(check (list int))
    "same victims"
    (List.filter (fun i -> flags.(i)) (List.init (Kill.size runner) Fun.id))
    (victims runner seq)

let test_kill_empty_sequence_kills_nothing_extra () =
  let d = parse and_gate_src in
  let runner = Kill.make d (Generate.all d) in
  check_int "no kills" 0 (List.length (Kill.kills_at runner []))

(* ------------------------------------------------------------------ *)
(* Kill against the behavioural simulator                             *)
(* ------------------------------------------------------------------ *)

module Prng = Mutsamp_util.Prng
module Registry = Mutsamp_circuits.Registry

(* Reference: the first cycle where [Sim] sees the mutant's outputs
   differ from the original's [reference] observations. *)
let sim_first_diff sim reference seq =
  Sim.reset sim;
  let rec go c seq reference =
    match seq, reference with
    | stim :: seq', obs :: reference' ->
      if Sim.outputs_equal (Sim.step sim stim) obs then go (c + 1) seq' reference'
      else Some c
    | _ -> None
  in
  go 0 seq reference

(* 127 random sequences — one block of 63 and one of 64 — with mixed
   lengths inside every block, an empty one included. *)
let diff_sequences d =
  let prng = Prng.create 11 in
  let max_len = if Check.is_combinational d then 3 else 10 in
  Array.init 127 (fun k ->
      let len = if k = 5 then 0 else if k mod 3 = 0 then 1 else 1 + Prng.int prng max_len in
      Stimuli.random_sequence prng d len)

(* wide128 has about 260,000 mutants, too many to hold at once, so its
   sample is built from the source: every 16th statement gets its
   operator swapped, and every 16th (offset by 8) reads [i0] in place of
   its last operand. *)
let wide128_sample () =
  let src = Mutsamp_circuits.Wide.source 128 in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let body = ref false in
  let mutants = ref [] in
  Array.iteri
    (fun k line ->
      if String.equal line "begin" then body := true
      else if !body && String.ends_with ~suffix:";" line && k mod 8 = 0 then begin
        let edited =
          match String.split_on_char ' ' line with
          | words when k mod 16 = 0 ->
            String.concat " "
              (List.map (function "xor" -> "or" | "or" -> "xnor" | w -> w) words)
          | words ->
            String.concat " "
              (List.mapi (fun j w -> if j = List.length words - 1 then "i0;" else w) words)
        in
        let src' =
          String.concat "\n" (Array.to_list (Array.mapi (fun j l -> if j = k then edited else l) lines))
        in
        mutants :=
          Mutant.make ~id:(List.length !mutants)
            ~op:(if k mod 16 = 0 then Operator.LOR else Operator.VR)
            ~site:k ~info:edited (parse src')
          :: !mutants
      end)
    lines;
  List.rev !mutants

let test_kill_matches_sim (entry : Registry.entry) () =
  let d = entry.Registry.design () in
  let ms = if entry.Registry.name = "wide128" then wide128_sample () else Generate.all d in
  let runner = Kill.make d ms in
  let n = Kill.size runner in
  let seqs = diff_sequences d in
  let references = Array.map (Sim.run d) seqs in
  let expected =
    Array.of_list
      (List.map
         (fun (m : Mutant.t) ->
           let sim = Sim.create m.Mutant.design in
           Array.mapi (fun s seq -> sim_first_diff sim references.(s) seq) seqs)
         ms)
  in
  let detections = Array.concat (Array.to_list expected) in
  check_bool "some kill" true (Array.exists Option.is_some detections);
  if not (Check.is_combinational d) then
    check_bool "some kill after cycle 0" true
      (Array.exists (function Some c -> c > 0 | None -> false) detections);
  let kills ?(alive = List.init n Fun.id) s =
    List.filter_map (fun i -> Option.map (fun c -> (i, c)) expected.(i).(s)) alive
  in
  let check_kills what want got =
    Alcotest.(check (list (pair int int))) (entry.Registry.name ^ " " ^ what) want got
  in
  (* One-lane blocks. *)
  for s = 0 to 63 do
    check_kills "kills_at" (kills s) (Kill.kills_at runner seqs.(s))
  done;
  (* A full 63-lane block, over every mutant and over an alive subset. *)
  let block = Array.sub seqs 64 63 in
  let b = Kill.run runner block in
  Array.iteri (fun k _ -> check_kills "kills_in" (kills (64 + k)) (Kill.kills_in runner b k)) block;
  let alive = List.filter (fun i -> i mod 3 <> 1) (List.init n Fun.id) in
  let b = Kill.run runner ~alive block in
  Array.iteri
    (fun k _ ->
      check_kills "kills_in alive" (kills ~alive (64 + k)) (Kill.kills_in runner b ~alive k))
    block;
  (* Whole test sets of 1, 62, 63, 64 and 127 sequences. *)
  List.iter
    (fun count ->
      let flags = Kill.killed_set runner (Array.to_list (Array.sub seqs 0 count)) in
      check_int "one flag per mutant" n (Array.length flags);
      Array.iteri
        (fun i flag ->
          let want = List.exists (fun s -> expected.(i).(s) <> None) (List.init count Fun.id) in
          check_bool
            (Printf.sprintf "%s killed_set of %d, mutant %d" entry.Registry.name count i)
            want flag)
        flags)
    [ 1; 62; 63; 64; 127 ];
  (* A budget cut halfway through the 127 sequences leaves the flags of a
     sequence-major, one-at-a-time pass with the same quota. *)
  let cut_flags quota =
    let budget = Mutsamp_robust.Budget.create ~fsim_pairs:quota () in
    let killed = Array.make n false and stopped = ref false and spent = ref 0 in
    Array.iteri
      (fun s seq ->
        for i = 0 to n - 1 do
          if (not !stopped) && not killed.(i) then
            match
              Mutsamp_robust.Budget.spend budget ~stage:Mutsamp_robust.Error.Kill
                Mutsamp_robust.Budget.Fsim_pairs (List.length seq)
            with
            | Error _ -> stopped := true
            | Ok () ->
              spent := !spent + List.length seq;
              if expected.(i).(s) <> None then killed.(i) <- true
        done)
      seqs;
    (killed, !spent)
  in
  let _, full = cut_flags max_int in
  let quota = full / 2 in
  let want, _ = cut_flags quota in
  let got =
    Kill.killed_set runner
      ~ctx:(Mutsamp_exec.Ctx.make ~budget:(Mutsamp_robust.Budget.create ~fsim_pairs:quota ()) ())
      (Array.to_list seqs)
  in
  Mutsamp_robust.Degrade.reset ();
  Array.iteri
    (fun i flag ->
      check_bool (Printf.sprintf "%s budget-cut flag, mutant %d" entry.Registry.name i) want.(i) flag)
    got

(* ------------------------------------------------------------------ *)
(* Equivalence                                                        *)
(* ------------------------------------------------------------------ *)

(* The oracle of a design, over a runner of no mutants. *)
let make_oracle d = Equivalence.make (Kill.make d [])

(* A hand-written design wrapped as a mutant, for the oracle. *)
let as_mutant d = Mutant.make ~id:0 ~op:Operator.LOR ~site:0 ~info:"hand-written" d

(* The verdict of [b] decided as a mutant of [a]. *)
let decide_pair a b =
  match Equivalence.decide (make_oracle a) (as_mutant b) with
  | Ok v -> v
  | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e)

let test_equiv_self () =
  let d = parse and_gate_src in
  (match decide_pair d d with
   | Equivalence.Equivalent -> ()
   | v -> Alcotest.fail ("self not equivalent: " ^ Equivalence.verdict_name v))

let test_equiv_distinguishes_or () =
  let d = parse and_gate_src in
  let d_or =
    parse
      {|design and2 is
  input a : bit;
  input b : bit;
  output y : bit;
begin
  y := a or b;
end design;|}
  in
  (match decide_pair d d_or with
   | Equivalence.Distinguished [ stim ] ->
     (* The counterexample really distinguishes the two designs. *)
     let oa = List.concat (Sim.run d [ stim ]) in
     let ob = List.concat (Sim.run d_or [ stim ]) in
     check_bool "really differs" false
       (Bitvec.equal (List.assoc "y" oa) (List.assoc "y" ob))
   | v -> Alcotest.fail ("expected distinguished: " ^ Equivalence.verdict_name v))

let test_equiv_detects_equivalent_mutant () =
  (* a and a is equivalent to a or a: an equivalent-mutant shape. *)
  let d1 =
    parse
      {|design t is input a : bit; output y : bit; begin y := a and a; end design;|}
  in
  let d2 =
    parse
      {|design t is input a : bit; output y : bit; begin y := a or a; end design;|}
  in
  (match Equivalence.decide (make_oracle d1) (as_mutant d2) with
   | Ok Equivalence.Equivalent -> ()
   | Ok v -> Alcotest.fail ("expected equivalent: " ^ Equivalence.verdict_name v)
   | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e))

(* Past the search's limits: 13 input bits on a sequential design, and
   131072 reachable joint states. *)
let test_equiv_budget_unknown () =
  let wide =
    parse
      {|design w is input a : unsigned(13); output y : bit; reg r : bit := '0';
        begin y := r; r := a[0]; end design;|}
  in
  (match decide_pair wide wide with
   | Equivalence.Unknown -> ()
   | v -> Alcotest.fail ("expected unknown: " ^ Equivalence.verdict_name v));
  let counter =
    parse
      {|design c is input en : bit; output y : bit; reg n : unsigned(17) := 0;
        begin y := n[16]; n := n + 1; end design;|}
  in
  (match decide_pair counter counter with
   | Equivalence.Unknown -> ()
   | v -> Alcotest.fail ("expected unknown: " ^ Equivalence.verdict_name v))

let test_equiv_product_bfs_counter () =
  let d = parse counter_src in
  (match decide_pair d d with
   | Equivalence.Equivalent -> ()
   | v -> Alcotest.fail ("self: " ^ Equivalence.verdict_name v));
  (* Mutant: counts by 2 — distinguishable after two enables. *)
  let mutant =
    parse
      {|design counter is
  input en : bit;
  output q : unsigned(3);
  reg count : unsigned(3) := 0;
begin
  q := count;
  if en = '1' then
    count := count + 2;
  end if;
end design;|}
  in
  (match decide_pair d mutant with
   | Equivalence.Distinguished seq ->
     check_bool "nonempty sequence" true (List.length seq >= 2);
     (* Verify the sequence really distinguishes. *)
     let oa = Sim.run d seq and ob = Sim.run mutant seq in
     check_bool "distinguishes" true
       (List.exists2 (fun a b -> not (Sim.outputs_equal a b)) oa ob)
   | v -> Alcotest.fail ("expected distinguished: " ^ Equivalence.verdict_name v))

let test_equiv_bfs_finds_shortest () =
  (* A fault only visible after reaching state 3 needs >= 4 cycles. *)
  let good =
    parse
      {|design fsm is
  input go : bit;
  output y : bit;
  reg s : unsigned(2) := 0;
begin
  y := '0';
  if s = 3 then
    y := '1';
    s := 0;
  else
    if go = '1' then
      s := s + 1;
    end if;
  end if;
end design;|}
  in
  let bad =
    parse
      {|design fsm is
  input go : bit;
  output y : bit;
  reg s : unsigned(2) := 0;
begin
  y := '0';
  if s = 3 then
    y := '0';
    s := 0;
  else
    if go = '1' then
      s := s + 1;
    end if;
  end if;
end design;|}
  in
  (match decide_pair good bad with
   | Equivalence.Distinguished seq -> check_int "shortest length" 4 (List.length seq)
   | v -> Alcotest.fail ("expected distinguished: " ^ Equivalence.verdict_name v))

let test_equiv_interface_mismatch () =
  let a = parse and_gate_src and b = parse counter_src in
  (try
     ignore (Equivalence.decide (make_oracle a) (as_mutant b));
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

(* Property: for random LOR/AOR mutants of the mini ALU, the
   equivalence verdict agrees with brute-force exhaustive comparison. *)
let prop_equivalence_matches_bruteforce =
  let d = parse alu_src in
  let ms = Array.of_list (Generate.all d) in
  let oracle = make_oracle d in
  let arb = QCheck.make ~print:(fun i -> Mutant.to_string ms.(i))
      QCheck.Gen.(int_range 0 (Array.length ms - 1)) in
  QCheck.Test.make ~name:"equivalence check agrees with brute force" ~count:60 arb
    (fun i ->
      let m = ms.(i) in
      let brute =
        let sims = Sim.create d and simm = Sim.create m.Mutant.design in
        List.for_all
          (fun stim -> Sim.outputs_equal (Sim.step sims stim) (Sim.step simm stim))
          (List.init (1 lsl Stimuli.input_bits d) (Stimuli.of_code d))
      in
      match Equivalence.decide oracle m with
      | Ok Equivalence.Equivalent -> brute
      | Ok (Equivalence.Distinguished _) -> not brute
      | Ok Equivalence.Unknown | Error _ -> false)

(* Property: on random FSM designs, every mutant's verdict and witness
   from the search over compiled programs are the interpreter
   search's. *)
let prop_decide_matches_interpreter =
  QCheck.Test.make ~name:"decide = interpreter search, random FSM designs" ~count:30
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let d = Random_fsm.design (Mutsamp_util.Prng.create seed) in
      let oracle = make_oracle d in
      List.for_all
        (fun (m : Mutant.t) ->
          Equivalence.decide oracle m = Ok (Sim_bfs.product_bfs d m.Mutant.design))
        (Generate.all d))

(* ------------------------------------------------------------------ *)
(* The equivalence oracle on registry circuits                        *)
(* ------------------------------------------------------------------ *)

let registry_design name =
  match Mutsamp_circuits.Registry.find name with
  | Some e -> e.Mutsamp_circuits.Registry.design ()
  | None -> Alcotest.failf "circuit %s not in registry" name

(* A verdict and its witness as text: one line per stimulus cycle. *)
let verdict_text buf v =
  Buffer.add_string buf (Equivalence.verdict_name v);
  (match v with
   | Equivalence.Distinguished seq ->
     List.iter
       (fun stim ->
         Buffer.add_char buf '\n';
         List.iter
           (fun (name, bits) -> Printf.bprintf buf " %s=%s" name (Bitvec.to_string bits))
           stim)
       seq
   | Equivalence.Equivalent | Equivalence.Unknown -> ());
  Buffer.add_string buf "\n--\n"

let verdicts_digest ?(first = max_int) d verdict =
  let buf = Buffer.create (1 lsl 16) in
  List.iteri (fun i m -> if i < first then verdict_text buf (verdict m)) (Generate.all d);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Digests of every mutant's verdict and witness, in mutant order,
   recorded from the search these tests were written against. A change
   to the state search that moves a verdict, a witness cycle or the
   order the codes are tried in changes them. *)
let search_pins =
  [
    ("b01", "18403fd4d50705add0268a722704ea0d");
    ("b02", "911be70b223d21f99aa56a6452cdcb6d");
    ("b03", "01e95a353a62e25ae494bec79625389b");
    ("b06", "d567aa42a711386f845ffb7c5d6e3aad");
    ("b08", "511fcb42c220ad67ff39bb6e9175219a");
    ("b09", "9687a4bb1165ba0ac711bb170a56e567");
  ]

let test_product_bfs_pinned () =
  List.iter
    (fun (name, digest) ->
      let d = registry_design name in
      Alcotest.(check string)
        (name ^ " product BFS") digest
        (verdicts_digest d (fun (m : Mutant.t) -> Sim_bfs.product_bfs d m.design)))
    search_pins

(* The library path over the same designs: each mutant decided by its
   design's oracle gives the verdict and witness the search pins hold. *)
let test_decide_pinned () =
  List.iter
    (fun (name, digest) ->
      let d = registry_design name in
      let oracle = make_oracle d in
      Alcotest.(check string)
        (name ^ " decide") digest
        (verdicts_digest d (fun m ->
             match Equivalence.decide oracle m with
             | Ok v -> v
             | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e))))
    search_pins

let test_exhaustive_pinned () =
  let d = registry_design "c17" in
  let oracle = make_oracle d in
  check_bool "exhaustive regime" true (Equivalence.regime oracle = Equivalence.Search);
  Alcotest.(check string)
    "c17 exhaustive" "0b25971f43623b2d9146d8209e1fa8ac"
    (verdicts_digest d (fun m ->
         match Equivalence.decide oracle m with
         | Ok v -> v
         | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e)))

(* The miter regime, pinned the same way: every c432 mutant and the
   first 96 of c499's, each decided by its design's oracle. A witness
   is the solver's model read back as a stimulus, so a change to the
   miter's encoding (which variables and clauses it creates, in which
   order) or to how a model maps back to the design's inputs moves
   them. *)
let test_miter_pinned () =
  List.iter
    (fun (name, first, digest) ->
      let d = registry_design name in
      let oracle = make_oracle d in
      check_bool (name ^ " miter regime") true (Equivalence.regime oracle = Equivalence.Miter);
      Alcotest.(check string)
        (name ^ " miter") digest
        (verdicts_digest ~first d (fun m ->
             match Equivalence.decide oracle m with
             | Ok v -> v
             | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e))))
    [ ("c432", max_int, "706ed6f7d5d2fc7dd2811901620c908b"); ("c499", 96, "745c71208122eec0eb44c91523662db6") ]

(* c17 (5 input bits) takes the exhaustive sweep; its verdicts must
   match the SAT miter on the synthesized pair, mutant by mutant. *)
let test_oracle_c17_agrees_with_sat () =
  let module Flow = Mutsamp_synth.Flow in
  let module Equiv = Mutsamp_sat.Equiv in
  let d = registry_design "c17" in
  let oracle = make_oracle d in
  check_bool "exhaustive regime" true (Equivalence.regime oracle = Equivalence.Search);
  let reference = Flow.synthesize d in
  List.iter
    (fun (m : Mutant.t) ->
      let agree =
        match
          ( Equivalence.decide oracle m,
            Equiv.check reference (Flow.synthesize m.Mutant.design) )
        with
        | Ok Equivalence.Equivalent, Ok Equiv.Equivalent
        | Ok (Equivalence.Distinguished _), Ok (Equiv.Counterexample _) ->
          true
        | _ -> false
      in
      check_bool (Mutant.to_string m) true agree)
    (Generate.all d)

(* c432 (36 input bits) takes the miter: every counterexample, mapped
   back to one word-level stimulus, must kill its mutant on replay. *)
let test_oracle_c432_counterexamples_kill () =
  let d = registry_design "c432" in
  let mutants = Generate.all d in
  let runner = Kill.make d mutants in
  let oracle = make_oracle d in
  check_bool "miter regime" true (Equivalence.regime oracle = Equivalence.Miter);
  let distinguished = ref 0 in
  List.iteri
    (fun i (m : Mutant.t) ->
      match Equivalence.decide oracle m with
      | Ok (Equivalence.Distinguished [ stim ]) ->
        incr distinguished;
        check_bool (Mutant.to_string m) true
          (List.mem_assoc i (Kill.kills_at runner ~alive:[ i ] [ stim ]))
      | Ok (Equivalence.Distinguished _) -> Alcotest.fail "miter gives one cycle"
      | Ok (Equivalence.Equivalent | Equivalence.Unknown) -> ()
      | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e))
    mutants;
  check_bool "some distinguished" true (!distinguished > 0)

module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Metrics = Mutsamp_obs.Metrics

(* [f ()] and how far it moved the counter [name]. *)
let counting name f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let r = f () in
      let snap = Metrics.snapshot () in
      (r, Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)))

(* c432: every mutant's verdict is the miter's on the synthesized pair,
   whether the netlist comparison or a solve settled it; the
   comparison settles 21 of the 37 equivalent mutants. *)
let test_oracle_c432_structural_matches_miter () =
  let module Flow = Mutsamp_synth.Flow in
  let module Equiv = Mutsamp_sat.Equiv in
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let reference = Flow.synthesize d in
  let (), structural =
    counting "equiv.structural" (fun () ->
        List.iter
          (fun (m : Mutant.t) ->
            let agree =
              match
                ( Equivalence.decide oracle m,
                  Equiv.check reference (Flow.synthesize m.Mutant.design) )
              with
              | Ok Equivalence.Equivalent, Ok Equiv.Equivalent
              | Ok (Equivalence.Distinguished _), Ok (Equiv.Counterexample _) ->
                true
              | _ -> false
            in
            check_bool (Mutant.to_string m) true agree)
          (Generate.all d))
  in
  check_int "settled by the netlist comparison" 21 structural

(* c499: under a zero conflict quota only the netlist comparison
   settles a mutant, and it settles 32; the miter proves every 8th of
   them equivalent too. *)
let test_oracle_c499_structural_unsat () =
  let module Flow = Mutsamp_synth.Flow in
  let module Equiv = Mutsamp_sat.Equiv in
  let d = registry_design "c499" in
  let oracle = make_oracle d in
  let reference = Flow.synthesize d in
  let settled, structural =
    counting "equiv.structural" (fun () ->
        List.filter
          (fun (m : Mutant.t) ->
            let budget = Budget.create ~sat_conflicts:0 () in
            match (Equivalence.decide ~budget oracle m, Atomic.get m.Mutant.verdict) with
            | Ok Equivalence.Equivalent, Mutant.Settled { Mutant.structural = true; _ } -> true
            | _ -> false)
          (Generate.all d))
  in
  check_int "settled by the netlist comparison" 32 structural;
  check_int "settled mutants" 32 (List.length settled);
  List.iteri
    (fun i (m : Mutant.t) ->
      if i mod 8 = 0 then
        check_bool (Mutant.to_string m) true
          (Equiv.check reference (Flow.synthesize m.Mutant.design) = Ok Equiv.Equivalent))
    settled

(* Two outputs swapped: the mutant's gates are the design's, gate for
   gate, but its outputs name other nets, so it is told apart. *)
let test_equiv_swapped_outputs () =
  let module Flow = Mutsamp_synth.Flow in
  let module Netlist = Mutsamp_netlist.Netlist in
  let src ~x ~y =
    Printf.sprintf
      {|design swap is
  input a : unsigned(9);
  input b : unsigned(9);
  output x : bit;
  output y : bit;
  var p : bit;
  var q : bit;
begin
  p := a[0] and b[0];
  q := a[1] or b[1];
  x := %s;
  y := %s;
end design;|}
      x y
  in
  let d = parse (src ~x:"p" ~y:"q") and swapped = parse (src ~x:"q" ~y:"p") in
  let nd = Flow.synthesize d and ns = Flow.synthesize swapped in
  check_bool "same gates" true (nd.Netlist.gates = ns.Netlist.gates);
  check_bool "same inputs" true (nd.Netlist.input_nets = ns.Netlist.input_nets);
  check_bool "other outputs" false (nd.Netlist.output_list = ns.Netlist.output_list);
  let oracle = make_oracle d in
  check_bool "miter regime" true (Equivalence.regime oracle = Equivalence.Miter);
  match Equivalence.decide oracle (as_mutant swapped) with
  | Ok (Equivalence.Distinguished _) -> ()
  | Ok v -> Alcotest.fail ("expected distinguished: " ^ Equivalence.verdict_name v)
  | Error e -> Alcotest.fail (Mutsamp_robust.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* The verdict memo                                                   *)
(* ------------------------------------------------------------------ *)

(* The same mutant with an open verdict slot: deciding it is memo-free. *)
let unsettled (m : Mutant.t) =
  Mutant.make ~id:m.Mutant.id ~op:m.Mutant.op ~site:m.Mutant.site ~info:m.Mutant.info
    m.Mutant.design

let fresh_decide ?budget d m = Equivalence.decide ?budget (make_oracle d) (unsettled m)

let show = function
  | Ok v -> Equivalence.verdict_name v
  | Error e -> Mutsamp_robust.Error.to_string e

(* Structural: a [Distinguished] sequence must match stimulus by
   stimulus. *)
let check_verdict what (m : Mutant.t) expected got =
  check_bool
    (Printf.sprintf "%s %s: expected %s, got %s" what (Mutant.to_string m) (show expected)
       (show got))
    true (expected = got)

let conclusive = function
  | Ok (Equivalence.Equivalent | Equivalence.Distinguished _) -> true
  | Ok Equivalence.Unknown | Error _ -> false

(* [f ()] and the decides it answered from a mutant's slot. *)
let counting_reused f = counting "equiv.reused" f

(* Every 24th mutant: the miter regime costs a solve per decide. *)
let sample d = List.filteri (fun i _ -> i mod 24 = 0) (Generate.all d)

(* First decide, second decide and a decide through a fresh oracle of
   the same design all return what a memo-free decide returns; the
   second and third are answered from the slot. *)
let test_memo_matches_fresh d mutants () =
  let oracle = make_oracle d in
  List.iter
    (fun (m : Mutant.t) ->
      let expected = fresh_decide d m in
      let first, first_reused = counting_reused (fun () -> Equivalence.decide oracle m) in
      let second, second_reused = counting_reused (fun () -> Equivalence.decide oracle m) in
      let other, other_reused =
        counting_reused (fun () -> Equivalence.decide (make_oracle d) m)
      in
      check_verdict "first" m expected first;
      check_verdict "second" m expected second;
      check_verdict "fresh oracle" m expected other;
      let hit = if conclusive expected then 1 else 0 in
      check_int "first decide computes" 0 first_reused;
      check_int "second decide reuses" hit second_reused;
      check_int "fresh oracle reuses" hit other_reused)
    mutants

let test_memo_c17 () =
  let d = registry_design "c17" in
  test_memo_matches_fresh d (Generate.all d) ()

let test_memo_b01 () =
  let d = registry_design "b01" in
  test_memo_matches_fresh d (Generate.all d) ()

let test_memo_c432 () =
  let d = registry_design "c432" in
  test_memo_matches_fresh d (sample d) ()

(* Each mutant settled against its own design, then decided against
   its neighbour's design: the foreign decide must get the foreign
   verdict, and leave the own one in place. *)
let test_memo_foreign_design name ~every () =
  let d = registry_design name in
  let ms = Array.of_list (Generate.all d) in
  let oracle = make_oracle d in
  let told_apart = ref 0 in
  Array.iteri
    (fun i (m : Mutant.t) ->
      if i mod every = 0 && i + 1 < Array.length ms then begin
        let own = Equivalence.decide oracle m in
        let r = ms.(i + 1) in
        let foreign = make_oracle r.Mutant.design in
        let expected = fresh_decide r.Mutant.design m in
        check_verdict "foreign" m expected (Equivalence.decide foreign m);
        check_verdict "foreign again" m expected (Equivalence.decide foreign m);
        (match Atomic.get m.Mutant.verdict with
         | Mutant.Settled s -> check_bool "slot keeps its design" true (s.Mutant.against == d)
         | Mutant.Open | Mutant.Deciding _ ->
           check_bool "inconclusive own verdict" false (conclusive own));
        let again, reused = counting_reused (fun () -> Equivalence.decide oracle m) in
        check_verdict "own after foreign" m own again;
        check_int "own verdict still reused" (if conclusive own then 1 else 0) reused;
        if own <> expected then incr told_apart
      end)
    ms;
  check_bool "some foreign verdict differs from the own one" true (!told_apart > 0)

(* A solve cut by the budget is not kept: a later unlimited decide
   still settles the mutant. *)
let test_memo_skips_cut_solves () =
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let cut = ref 0 in
  List.iter
    (fun (m : Mutant.t) ->
      match Equivalence.decide ~budget:(Budget.create ~sat_conflicts:0 ()) oracle m with
      | Error _ ->
        incr cut;
        check_bool "cut leaves the slot open" true
          (match Atomic.get m.Mutant.verdict with Mutant.Open -> true | _ -> false);
        check_verdict "unlimited after a cut" m (fresh_decide d m) (Equivalence.decide oracle m)
      | Ok _ -> ())
    (sample d);
  check_bool "some solves cut" true (!cut > 0)

(* Under a finite conflict quota, however ample, a settled miter
   mutant is solved again: the decide returns what a fresh solve
   returns, leaves the budget as the fresh solve leaves it, and
   reuses nothing. *)
let test_memo_finite_quota_solves_again () =
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let settled = ref 0 in
  List.iter
    (fun (m : Mutant.t) ->
      if conclusive (Equivalence.decide oracle m) then begin
        incr settled;
        List.iter
          (fun quota ->
            let fresh_budget = Budget.create ~sat_conflicts:quota () in
            let fresh = fresh_decide ~budget:fresh_budget d m in
            let budget = Budget.create ~sat_conflicts:quota () in
            let again, reused =
              counting_reused (fun () -> Equivalence.decide ~budget oracle m)
            in
            check_verdict (Printf.sprintf "quota %d" quota) m fresh again;
            check_int "budget left as a fresh solve leaves it"
              (Budget.remaining fresh_budget Budget.Sat_conflicts)
              (Budget.remaining budget Budget.Sat_conflicts);
            check_int "nothing reused under a finite quota" 0 reused)
          [ 0; 1; 16; 1_000_000 ]
      end)
    (sample d);
  check_bool "some mutants settled" true (!settled > 0)

(* A kept miter verdict is not returned once the deadline has passed,
   and stays kept. *)
let test_memo_hit_checks_deadline () =
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let m = List.hd (sample d) in
  let settled = Equivalence.decide oracle m in
  check_bool "settled" true (conclusive settled);
  let budget = Budget.create ~deadline_ms:60_000 () in
  Budget.expire budget;
  let late, reused = counting_reused (fun () -> Equivalence.decide ~budget oracle m) in
  check_bool "times out" true
    (late = Error (Mutsamp_robust.Error.Timeout Mutsamp_robust.Error.Sat));
  check_int "not counted as reused" 0 reused;
  check_verdict "kept after the deadline" m settled (Equivalence.decide oracle m)

(* A kept miter verdict passes the solve-entry chaos point like a
   fresh solve does. *)
let test_memo_hit_trips_chaos () =
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let m = List.hd (sample d) in
  let settled = Equivalence.decide oracle m in
  check_bool "settled" true (conclusive settled);
  Fun.protect ~finally:Chaos.disarm_all (fun () ->
      Chaos.arm Chaos.Sat_solve Chaos.Timeout;
      check_verdict "hit under chaos" m (fresh_decide d m) (Equivalence.decide oracle m));
  check_verdict "hit after chaos" m settled (Equivalence.decide oracle m)

(* The netlist comparison runs no solve: it checks the deadline but
   passes no chaos point, and neither does a hit on its kept
   verdict. *)
let test_memo_structural_deadline_no_chaos () =
  let d = registry_design "c432" in
  let oracle = make_oracle d in
  let m =
    List.find
      (fun (m : Mutant.t) ->
        ignore (Equivalence.decide oracle m);
        match Atomic.get m.Mutant.verdict with
        | Mutant.Settled s -> s.Mutant.structural
        | Mutant.Open | Mutant.Deciding _ -> false)
      (Generate.all d)
  in
  Fun.protect ~finally:Chaos.disarm_all (fun () ->
      Chaos.arm Chaos.Sat_solve Chaos.Timeout;
      let fresh = fresh_decide d m in
      check_verdict "fresh under chaos" m (Ok Equivalence.Equivalent) fresh;
      let hit, reused = counting_reused (fun () -> Equivalence.decide oracle m) in
      check_verdict "hit under chaos" m fresh hit;
      check_int "hit reused" 1 reused);
  let budget = Budget.create ~deadline_ms:60_000 () in
  Budget.expire budget;
  check_bool "fresh comparison checks the deadline" true
    (fresh_decide ~budget d m
    = Error (Mutsamp_robust.Error.Timeout Mutsamp_robust.Error.Sat))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "mutation.operator",
      [
        Alcotest.test_case "roundtrip" `Quick test_operator_roundtrip;
        Alcotest.test_case "ten operators" `Quick test_operator_count;
        Alcotest.test_case "case-insensitive" `Quick test_operator_of_string_case_insensitive;
      ] );
    ( "mutation.generate",
      [
        Alcotest.test_case "and gate LOR" `Quick test_generate_and_gate;
        Alcotest.test_case "ids sequential" `Quick test_generate_ids_sequential;
        Alcotest.test_case "all elaborated" `Quick test_generate_all_elaborated;
        Alcotest.test_case "all differ" `Quick test_generate_all_differ_from_original;
        Alcotest.test_case "interface preserved" `Quick test_generate_same_interface;
        Alcotest.test_case "operator coverage" `Quick test_generate_operator_coverage;
        Alcotest.test_case "UOD needs not" `Quick test_generate_uod_only_on_not;
        Alcotest.test_case "CR from literals" `Quick test_generate_cr_only_with_constants;
        Alcotest.test_case "for_operator subset" `Quick test_for_operator_subset;
        Alcotest.test_case "count histogram" `Quick test_count_by_operator_total;
        Alcotest.test_case "rejects unelaborated" `Quick test_generate_rejects_unelaborated;
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
      ] );
    ( "mutation.kill",
      [
        Alcotest.test_case "and gate LOR kills" `Quick test_kill_and_gate_lor;
        Alcotest.test_case "single-mutant run consistent" `Quick test_kill_stops_early_is_consistent;
        Alcotest.test_case "alive restriction" `Quick test_kill_alive_restriction;
        Alcotest.test_case "sequential mutants" `Quick test_kill_sequential_mutant;
        Alcotest.test_case "kills_at cycles" `Quick test_kills_at_cycles;
        Alcotest.test_case "kills_at agrees" `Quick test_kills_at_agrees_with_kills;
        Alcotest.test_case "empty sequence" `Quick test_kill_empty_sequence_kills_nothing_extra;
      ] );
    ( "kill.lanes",
      List.map
        (fun (e : Registry.entry) ->
          Alcotest.test_case (e.Registry.name ^ " matches Sim") `Quick (test_kill_matches_sim e))
        Registry.all );
    ( "mutation.equivalence",
      [
        Alcotest.test_case "self equivalent" `Quick test_equiv_self;
        Alcotest.test_case "distinguishes or" `Quick test_equiv_distinguishes_or;
        Alcotest.test_case "equivalent mutant" `Quick test_equiv_detects_equivalent_mutant;
        Alcotest.test_case "budget unknown" `Quick test_equiv_budget_unknown;
        Alcotest.test_case "product bfs counter" `Quick test_equiv_product_bfs_counter;
        Alcotest.test_case "bfs shortest" `Quick test_equiv_bfs_finds_shortest;
        Alcotest.test_case "interface mismatch" `Quick test_equiv_interface_mismatch;
        q prop_equivalence_matches_bruteforce;
        q prop_decide_matches_interpreter;
        Alcotest.test_case "oracle c17 agrees with sat" `Quick
          test_oracle_c17_agrees_with_sat;
        Alcotest.test_case "oracle c432 counterexamples kill" `Quick
          test_oracle_c432_counterexamples_kill;
        Alcotest.test_case "c432 netlist check matches miter" `Quick
          test_oracle_c432_structural_matches_miter;
        Alcotest.test_case "c499 netlist check is sound" `Quick
          test_oracle_c499_structural_unsat;
        Alcotest.test_case "swapped outputs distinguished" `Quick test_equiv_swapped_outputs;
        Alcotest.test_case "product bfs pinned" `Quick test_product_bfs_pinned;
        Alcotest.test_case "decide pinned" `Quick test_decide_pinned;
        Alcotest.test_case "exhaustive pinned" `Quick test_exhaustive_pinned;
        Alcotest.test_case "miter pinned" `Quick test_miter_pinned;
      ] );
    ( "mutation.memo",
      [
        Alcotest.test_case "c17 exhaustive matches fresh" `Quick test_memo_c17;
        Alcotest.test_case "b01 product BFS matches fresh" `Quick test_memo_b01;
        Alcotest.test_case "c432 miter matches fresh" `Quick test_memo_c432;
        Alcotest.test_case "c17 foreign design bypasses the slot" `Quick
          (test_memo_foreign_design "c17" ~every:1);
        Alcotest.test_case "c432 foreign design bypasses the slot" `Quick
          (test_memo_foreign_design "c432" ~every:48);
        Alcotest.test_case "cut solves are not kept" `Quick test_memo_skips_cut_solves;
        Alcotest.test_case "finite quota solves again" `Quick
          test_memo_finite_quota_solves_again;
        Alcotest.test_case "hit checks the deadline" `Quick test_memo_hit_checks_deadline;
        Alcotest.test_case "hit passes the chaos point" `Quick test_memo_hit_trips_chaos;
        Alcotest.test_case "structural: deadline, no chaos" `Quick
          test_memo_structural_deadline_no_chaos;
      ] );
  ]
