(* Tests for lib/netlist: builder, strash/folding, lint, topo, bitsim,
   fault injection, dot, stats. *)

module Gate = Mutsamp_netlist.Gate
module Netlist = Mutsamp_netlist.Netlist
module Topo = Mutsamp_netlist.Topo
module Bitsim = Mutsamp_netlist.Bitsim
module Dot = Mutsamp_netlist.Dot
module Stats = Mutsamp_netlist.Stats
module B = Netlist.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Full adder: s = a xor b xor cin, cout = majority. *)
let full_adder () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

(* Toggle flip-flop with enable. *)
let toggle () =
  let b = B.create "toggle" in
  let en = B.input b "en" in
  let q = B.dff b ~init:false in
  let d = B.xor_ b q en in
  B.connect_dff b q ~d;
  B.output b "q" q;
  B.finalize b

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

let test_builder_strash_shares () =
  let b = B.create "t" in
  let x = B.input b "x" and y = B.input b "y" in
  let g1 = B.and_ b x y in
  let g2 = B.and_ b y x in
  check_int "commutative sharing" g1 g2;
  let g3 = B.xor_ b x y and g4 = B.xor_ b x y in
  check_int "identical sharing" g3 g4

let test_builder_const_folding () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let zero = B.const b false and one = B.const b true in
  check_int "and(x,0)=0" zero (B.and_ b x zero);
  check_int "and(x,1)=x" x (B.and_ b x one);
  check_int "or(x,1)=1" one (B.or_ b x one);
  check_int "or(x,0)=x" x (B.or_ b x zero);
  check_int "xor(x,0)=x" x (B.xor_ b x zero);
  check_int "xor(x,x)=0" zero (B.xor_ b x x);
  check_int "and(x,x)=x" x (B.and_ b x x);
  check_int "not(not x)=x" x (B.not_ b (B.not_ b x));
  check_int "xnor(x,x)=1" one (B.xnor_ b x x)

let test_builder_buf_is_alias () =
  let b = B.create "t" in
  let x = B.input b "x" in
  check_int "buf passthrough" x (B.buf b x)

let test_builder_mux_same_branches () =
  let b = B.create "t" in
  let s = B.input b "s" and x = B.input b "x" in
  check_int "mux(s,x,x)=x" x (B.mux b ~sel:s ~t1:x ~t0:x)

let test_builder_duplicate_input_rejected () =
  let b = B.create "t" in
  ignore (B.input b "x");
  (try
     ignore (B.input b "x");
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

let test_builder_unconnected_dff_rejected () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let _q = B.dff b ~init:false in
  B.output b "y" x;
  (try
     ignore (B.finalize b);
     Alcotest.fail "should reject dangling dff"
   with Netlist.Lint_error _ -> ())

let test_builder_double_connect_rejected () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let q = B.dff b ~init:false in
  B.connect_dff b q ~d:x;
  (try
     B.connect_dff b q ~d:x;
     Alcotest.fail "should reject double connect"
   with Invalid_argument _ -> ())

(* Far more gates than the hash-cons table starts with: asking for each
   gate again, after every growth, returns the existing net. *)
let test_builder_strash_after_growth () =
  let b = B.create "t" in
  let x = B.input b "x" and y = B.input b "y" in
  let chain = Array.make 2000 0 in
  let prev = ref x in
  Array.iteri
    (fun i _ ->
      let g = if i mod 2 = 0 then B.and_ b !prev y else B.xor_ b x !prev in
      chain.(i) <- g;
      prev := g)
    chain;
  let nl_before = Array.length (B.finalize b).Netlist.gates in
  let prev = ref x in
  Array.iteri
    (fun i g ->
      let again = if i mod 2 = 0 then B.and_ b y !prev else B.xor_ b !prev x in
      check_int (Printf.sprintf "gate %d shared" i) g again;
      prev := g)
    chain;
  check_int "no new gates" nl_before (Array.length (B.finalize b).Netlist.gates)

let test_builder_commutative_one_gate () =
  let b = B.create "t" in
  let x = B.input b "x" and y = B.input b "y" in
  List.iter
    (fun (name, gate) ->
      let xy = gate b x y in
      check_int (name ^ " either order") xy (gate b y x);
      check_int (name ^ " again") xy (gate b x y))
    [
      ("and", B.and_); ("or", B.or_); ("nand", B.nand_); ("nor", B.nor_); ("xor", B.xor_);
      ("xnor", B.xnor_);
    ];
  check_int "six gates over two inputs" 8 (Array.length (B.finalize b).Netlist.gates)

let test_builder_constants_once () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let zero = B.const b false and one = B.const b true in
  check_bool "distinct" true (zero <> one);
  check_int "false again" zero (B.const b false);
  check_int "true again" one (B.const b true);
  check_int "not 0 = 1" one (B.not_ b zero);
  check_int "xnor(x,x) = 1" one (B.xnor_ b x x);
  check_int "xor(x,x) = 0" zero (B.xor_ b x x);
  B.output b "y" x;
  let consts =
    Array.fold_left
      (fun acc (g : Mutsamp_netlist.Gate.t) ->
        match g.kind with Mutsamp_netlist.Gate.Const _ -> acc + 1 | _ -> acc)
      0 (B.finalize b).Netlist.gates
  in
  check_int "two constant nets" 2 consts

(* The messages callers and tests have always seen. *)
let test_builder_errors () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let q = B.dff b ~init:true in
  let raises what msg f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  raises "connect a non-flip-flop" "Builder.connect_dff: not a flip-flop" (fun () ->
      B.connect_dff b x ~d:x);
  raises "connect out of range" "Builder: net id out of range" (fun () ->
      B.connect_dff b 99 ~d:x);
  raises "bad D net" "Builder.connect_dff: bad D net" (fun () -> B.connect_dff b q ~d:99);
  B.connect_dff b q ~d:x;
  raises "connect twice" "Builder.connect_dff: already connected" (fun () ->
      B.connect_dff b q ~d:x);
  raises "binary out of range" "Builder: net id out of range" (fun () -> B.and_ b x 99);
  raises "negative net" "Builder: net id out of range" (fun () -> B.or_ b (-1) x);
  raises "unary out of range" "Builder: net id out of range" (fun () -> B.not_ b 99);
  raises "buf out of range" "Builder: net id out of range" (fun () -> B.buf b 99);
  raises "output bad net" "Builder.output: bad net" (fun () -> B.output b "y" 99);
  raises "duplicate input" "Builder.input: duplicate input x" (fun () -> B.input b "x");
  B.output b "y" q;
  raises "duplicate output" "Builder.output: duplicate output y" (fun () -> B.output b "y" x)

(* ------------------------------------------------------------------ *)
(* Netlist / Topo                                                     *)
(* ------------------------------------------------------------------ *)

let test_netlist_counts () =
  let nl = full_adder () in
  check_int "inputs" 3 (Array.length nl.Netlist.input_nets);
  check_int "outputs" 2 (Array.length nl.Netlist.output_list);
  check_int "dffs" 0 (Netlist.num_dffs nl);
  check_bool "has logic" true (Netlist.num_logic_gates nl > 0)

let test_netlist_find () =
  let nl = full_adder () in
  Alcotest.(check (pair (array string) (array string)))
    "port names" ([| "a"; "b"; "cin" |], [| "s"; "cout" |]) (Netlist.port_names nl);
  check_int "a is the first input net" nl.Netlist.input_nets.(0) (Ports.input nl "a");
  check_int "s" (snd nl.Netlist.output_list.(0)) (Ports.output nl "s");
  (try
     ignore (Ports.input nl "zz");
     Alcotest.fail "should raise"
   with Not_found -> ())

let test_topo_order_respects_fanins () =
  let nl = full_adder () in
  let topo = Topo.compute nl in
  let pos = Array.make (Netlist.num_gates nl) (-1) in
  Array.iteri (fun i g -> pos.(g) <- i) topo.Topo.order;
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> ()
      | _ ->
        Array.iter
          (fun f -> if pos.(f) >= 0 then check_bool "fanin first" true (pos.(f) < pos.(i)))
          g.fanins)
    nl.Netlist.gates

let test_topo_levels () =
  let nl = full_adder () in
  let topo = Topo.compute nl in
  check_bool "depth >= 2" true (topo.Topo.max_level >= 2);
  Array.iter (fun net -> check_int "pi level" 0 topo.Topo.level.(net)) nl.Netlist.input_nets

(* Two gates appended out of net order (net n reads net n + 1) send
   [Topo.compute] and [Netlist.lint] down their DFS; over the first n
   nets the DFS must give what net order gives. *)
let with_out_of_order_tail (nl : Netlist.t) =
  let n = Array.length nl.gates in
  {
    nl with
    Netlist.gates =
      Array.append nl.gates
        [| { Gate.kind = Gate.Not; fanins = [| n + 1 |] }; { Gate.kind = Gate.Not; fanins = [| 0 |] } |];
  }

let test_topo_net_order_matches_dfs () =
  List.iter
    (fun name ->
      let d = (Option.get (Mutsamp_circuits.Registry.find name)).design () in
      let nl = Mutsamp_synth.Flow.synthesize d in
      let n = Array.length nl.gates in
      check_bool (name ^ " in net order") true (Netlist.in_net_order nl);
      let tailed = with_out_of_order_tail nl in
      check_bool (name ^ " tail out of order") false (Netlist.in_net_order tailed);
      Netlist.lint tailed;
      let fast = Topo.compute nl and dfs = Topo.compute tailed in
      let k = Array.length fast.Topo.order in
      check_bool (name ^ " order") true
        (fast.Topo.order = Array.sub dfs.Topo.order 0 k
        && Array.sub dfs.Topo.order k 2 = [| n + 1; n |]);
      check_bool (name ^ " levels") true (fast.Topo.level = Array.sub dfs.Topo.level 0 n);
      check_int (name ^ " max level") (max fast.Topo.max_level 2) dfs.Topo.max_level)
    [ "c17"; "c432"; "b01"; "b03" ]

let test_lint_rejects_cycle () =
  let nl = full_adder () in
  let n = Array.length nl.gates in
  let cyclic =
    {
      nl with
      Netlist.gates =
        Array.append nl.gates
          [| { Gate.kind = Gate.Not; fanins = [| n + 1 |] }; { Gate.kind = Gate.Not; fanins = [| n |] } |];
    }
  in
  match Netlist.lint cyclic with
  | () -> Alcotest.fail "cycle accepted"
  | exception Netlist.Lint_error msg ->
    Alcotest.(check string) "message" (Printf.sprintf "fa: combinational cycle through net %d" n) msg

let test_fanouts () =
  let nl = full_adder () in
  let fo = Netlist.fanouts nl in
  let a = Ports.input nl "a" in
  check_bool "a has fanout" true (List.length fo.(a) >= 2)

(* ------------------------------------------------------------------ *)
(* Bitsim                                                             *)
(* ------------------------------------------------------------------ *)

(* Exhaustive check of the full adder over all 8 input combinations
   packed into the first 8 lanes. *)
let test_bitsim_full_adder () =
  let nl = full_adder () in
  let sim = Bitsim.create nl in
  (* lane k carries input combination k: a = bit2, b = bit1, cin = bit0 *)
  let word_of f =
    let w = ref 0 in
    for k = 0 to 7 do
      if f k then w := !w lor (1 lsl k)
    done;
    !w
  in
  let a = word_of (fun k -> (k lsr 2) land 1 = 1) in
  let b = word_of (fun k -> (k lsr 1) land 1 = 1) in
  let cin = word_of (fun k -> k land 1 = 1) in
  let outs = Bitsim.step sim [| a; b; cin |] in
  let s_word = outs.(0) and cout_word = outs.(1) in
  for k = 0 to 7 do
    let ai = (k lsr 2) land 1 and bi = (k lsr 1) land 1 and ci = k land 1 in
    let sum = ai + bi + ci in
    check_int (Printf.sprintf "s lane %d" k) (sum land 1) ((s_word lsr k) land 1);
    check_int (Printf.sprintf "cout lane %d" k) (sum lsr 1) ((cout_word lsr k) land 1)
  done

let test_bitsim_toggle_sequence () =
  let nl = toggle () in
  let sim = Bitsim.create nl in
  Bitsim.reset sim;
  (* Lane 0: enable always on -> q toggles 0,1,0,1.
     Lane 1: enable off -> q stays 0. *)
  let en = 0b01 in
  let q0 = (Bitsim.step sim [| en |]).(0) in
  let q1 = (Bitsim.step sim [| en |]).(0) in
  let q2 = (Bitsim.step sim [| en |]).(0) in
  check_int "cycle0 lane0" 0 (q0 land 1);
  check_int "cycle1 lane0" 1 (q1 land 1);
  check_int "cycle2 lane0" 0 (q2 land 1);
  check_int "lane1 never toggles" 0 ((q0 lor q1 lor q2) lsr 1 land 1)

let test_bitsim_reset_initial_value () =
  let b = B.create "t" in
  let x = B.input b "x" in
  let q = B.dff b ~init:true in
  B.connect_dff b q ~d:x;
  B.output b "q" q;
  let nl = B.finalize b in
  let sim = Bitsim.create nl in
  Bitsim.reset sim;
  let o = (Bitsim.step sim [| 0 |]).(0) in
  check_int "init 1 in all lanes" Bitsim.all_ones o

let test_bitsim_fault_injection_net () =
  let nl = full_adder () in
  let sim = Bitsim.create nl in
  let a = Ports.input nl "a" in
  (* stuck-at-1 on input a with pattern a=0,b=1,cin=0: good s=1, faulty s=0 *)
  let good = Bitsim.step sim [| 0; Bitsim.all_ones; 0 |] in
  let faulty =
    Bitsim.step_injected sim [| 0; Bitsim.all_ones; 0 |] ~inj:(Bitsim.Net a)
      ~stuck:Bitsim.all_ones
  in
  check_bool "fault changes s" true (good.(0) <> faulty.(0));
  check_bool "fault changes cout" true (good.(1) <> faulty.(1))

let test_bitsim_fault_injection_pin () =
  (* y = a and b, with a also feeding z = a xor b. A pin fault on the
     AND's a-input must not disturb z. *)
  let b = B.create "t" in
  let a = B.input b "a" and bb = B.input b "b" in
  let y = B.and_ b a bb in
  let z = B.xor_ b a bb in
  B.output b "y" y;
  B.output b "z" z;
  let nl = B.finalize b in
  let sim = Bitsim.create nl in
  let pin =
    (* which pin of the AND gate reads net a? *)
    let g = nl.Netlist.gates.(y) in
    if g.Gate.fanins.(0) = a then 0 else 1
  in
  let inputs = [| 0; Bitsim.all_ones |] in
  (* a=0, b=1 *)
  let good_y = (Bitsim.step sim inputs).(0) in
  let outs =
    Bitsim.step_injected sim inputs ~inj:(Bitsim.Pin { gate = y; pin })
      ~stuck:Bitsim.all_ones
  in
  check_int "good y = 0" 0 good_y;
  check_int "faulty y = 1" Bitsim.all_ones outs.(0);
  check_int "z untouched" Bitsim.all_ones outs.(1)

let test_bitsim_sequential_fault_state () =
  (* Toggle FF with enable stuck-at-0: q never leaves 0. *)
  let nl = toggle () in
  let sim = Bitsim.create nl in
  Bitsim.reset sim;
  let inj = Bitsim.Net (Ports.input nl "en") in
  let q1 = Bitsim.step_injected sim [| Bitsim.all_ones |] ~inj ~stuck:0 in
  let q2 = Bitsim.step_injected sim [| Bitsim.all_ones |] ~inj ~stuck:0 in
  check_int "q stays 0" 0 (q1.(0) lor q2.(0))

let test_bitsim_input_arity () =
  let nl = full_adder () in
  let sim = Bitsim.create nl in
  (try
     ignore (Bitsim.step sim [| 0; 0 |]);
     Alcotest.fail "should reject"
   with Invalid_argument _ -> ())

(* Property: bitsim lanes are independent — packing random patterns in
   lanes equals running them one at a time. *)
let prop_bitsim_lane_independence =
  let gen = QCheck.Gen.(list_size (return 8) (int_range 0 7)) in
  QCheck.Test.make ~name:"bitsim lanes independent" ~count:100 (QCheck.make gen)
    (fun patterns ->
      let nl = full_adder () in
      let sim = Bitsim.create nl in
      let word_for sel =
        List.fold_left
          (fun (k, acc) p -> (k + 1, acc lor (((p lsr sel) land 1) lsl k)))
          (0, 0) patterns
        |> snd
      in
      let packed = Bitsim.step sim [| word_for 2; word_for 1; word_for 0 |] in
      List.for_all
        (fun (k, p) ->
          let single =
            Bitsim.step sim [| (p lsr 2) land 1; (p lsr 1) land 1; p land 1 |]
          in
          ((packed.(0) lsr k) land 1) = (single.(0) land 1)
          && ((packed.(1) lsr k) land 1) = (single.(1) land 1))
        (List.mapi (fun k p -> (k, p)) patterns))

(* ------------------------------------------------------------------ *)
(* Dot / Stats                                                        *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_dot_output () =
  let s = Dot.of_netlist (full_adder ()) in
  check_bool "digraph" true (contains s "digraph");
  check_bool "has input a" true (contains s "\"a\"");
  check_bool "has output s" true (contains s "out_s")

let test_stats () =
  let s = Stats.compute (full_adder ()) in
  check_int "pis" 3 s.Stats.primary_inputs;
  check_int "pos" 2 s.Stats.primary_outputs;
  check_int "ffs" 0 s.Stats.flip_flops;
  check_bool "gates > 0" true (s.Stats.logic_gates > 0);
  check_bool "levels > 0" true (s.Stats.levels > 0);
  check_bool "histogram mentions XOR" true
    (List.mem_assoc "XOR" s.Stats.gate_histogram)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "netlist.builder",
      [
        Alcotest.test_case "strash shares" `Quick test_builder_strash_shares;
        Alcotest.test_case "const folding" `Quick test_builder_const_folding;
        Alcotest.test_case "buf alias" `Quick test_builder_buf_is_alias;
        Alcotest.test_case "mux same branches" `Quick test_builder_mux_same_branches;
        Alcotest.test_case "duplicate input" `Quick test_builder_duplicate_input_rejected;
        Alcotest.test_case "unconnected dff" `Quick test_builder_unconnected_dff_rejected;
        Alcotest.test_case "double connect" `Quick test_builder_double_connect_rejected;
        Alcotest.test_case "strash after growth" `Quick test_builder_strash_after_growth;
        Alcotest.test_case "commutative one gate" `Quick test_builder_commutative_one_gate;
        Alcotest.test_case "constants once" `Quick test_builder_constants_once;
        Alcotest.test_case "error messages" `Quick test_builder_errors;
      ] );
    ( "netlist.core",
      [
        Alcotest.test_case "counts" `Quick test_netlist_counts;
        Alcotest.test_case "find by name" `Quick test_netlist_find;
        Alcotest.test_case "topo respects fanins" `Quick test_topo_order_respects_fanins;
        Alcotest.test_case "topo levels" `Quick test_topo_levels;
        Alcotest.test_case "topo net order = dfs" `Quick test_topo_net_order_matches_dfs;
        Alcotest.test_case "lint rejects cycle" `Quick test_lint_rejects_cycle;
        Alcotest.test_case "fanouts" `Quick test_fanouts;
      ] );
    ( "netlist.bitsim",
      [
        Alcotest.test_case "full adder exhaustive" `Quick test_bitsim_full_adder;
        Alcotest.test_case "toggle sequence" `Quick test_bitsim_toggle_sequence;
        Alcotest.test_case "reset initial value" `Quick test_bitsim_reset_initial_value;
        Alcotest.test_case "net fault injection" `Quick test_bitsim_fault_injection_net;
        Alcotest.test_case "pin fault injection" `Quick test_bitsim_fault_injection_pin;
        Alcotest.test_case "sequential fault state" `Quick test_bitsim_sequential_fault_state;
        Alcotest.test_case "input arity" `Quick test_bitsim_input_arity;
        q prop_bitsim_lane_independence;
      ] );
    ( "netlist.reports",
      [
        Alcotest.test_case "dot" `Quick test_dot_output;
        Alcotest.test_case "stats" `Quick test_stats;
      ] );
  ]
