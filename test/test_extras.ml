(* Tests for the extension modules: .bench format I/O, VCD output and
   the b04 benchmark. *)

module Bitvec = Mutsamp_util.Bitvec
module Prng = Mutsamp_util.Prng
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Benchfmt = Mutsamp_netlist.Benchfmt
module B = Netlist.Builder
module Registry = Mutsamp_circuits.Registry
module C17 = Mutsamp_circuits.C17
module Sim = Mutsamp_hdl.Sim
module Flow = Mutsamp_synth.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Result-typed imports/checks, unwrapped for tests that expect
   success. *)
let bench_of_string ?name src =
  Mutsamp_robust.Error.ok_exn (Benchfmt.parse ?name src)
let bv w v = Bitvec.make ~width:w v

let full_adder () =
  let b = B.create "fa" in
  let a = B.input b "a" and bb = B.input b "b" and cin = B.input b "cin" in
  let s = B.xor_ b (B.xor_ b a bb) cin in
  let cout = B.or_ b (B.and_ b a bb) (B.or_ b (B.and_ b a cin) (B.and_ b bb cin)) in
  B.output b "s" s;
  B.output b "cout" cout;
  B.finalize b

(* ------------------------------------------------------------------ *)
(* Benchfmt                                                           *)
(* ------------------------------------------------------------------ *)

let c17_bench_text =
  {|# c17 iscas example
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
|}

let test_bench_import_c17 () =
  let nl = bench_of_string ~name:"c17" c17_bench_text in
  check_int "inputs" 5 (Array.length nl.Netlist.input_nets);
  check_int "outputs" 2 (Array.length nl.Netlist.output_list);
  (* Functionally identical to our canonical c17. *)
  let reference = Bitsim.create (C17.netlist ()) in
  let imported = Bitsim.create nl in
  for code = 0 to 31 do
    let words = Array.init 5 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0) in
    check_bool "same function" true
      (Bitsim.step reference words = Bitsim.step imported words)
  done

let test_bench_roundtrip_combinational () =
  let nl = full_adder () in
  let nl2 = bench_of_string (Benchfmt.to_string nl) in
  let s1 = Bitsim.create nl and s2 = Bitsim.create nl2 in
  for code = 0 to 7 do
    let w3 = Array.init 3 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0) in
    check_bool "roundtrip function" true (Bitsim.step s1 w3 = Bitsim.step s2 w3)
  done

let test_bench_roundtrip_sequential_with_init () =
  let b = B.create "seq" in
  let en = B.input b "en" in
  let q0 = B.dff b ~init:false in
  let q1 = B.dff b ~init:true in
  B.connect_dff b q0 ~d:(B.xor_ b q0 en);
  B.connect_dff b q1 ~d:(B.and_ b q1 en);
  B.output b "y" (B.xor_ b q0 q1);
  let nl = B.finalize b in
  let nl2 = bench_of_string (Benchfmt.to_string nl) in
  check_int "dffs preserved" 2 (Netlist.num_dffs nl2);
  let s1 = Bitsim.create nl and s2 = Bitsim.create nl2 in
  Bitsim.reset s1;
  Bitsim.reset s2;
  (* Init values must survive the round trip: same 6-cycle trace. *)
  let prng = Prng.create 5 in
  for _ = 1 to 6 do
    let w = [| if Prng.bool prng then Bitsim.all_ones else 0 |] in
    check_bool "trace equal" true (Bitsim.step s1 w = Bitsim.step s2 w)
  done

let test_bench_nary_decomposition () =
  let nl = bench_of_string
      {|INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = AND(a, b, c)
|}
  in
  let sim = Bitsim.create nl in
  for code = 0 to 7 do
    let words = Array.init 3 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0) in
    let y = (Bitsim.step sim words).(0) land 1 in
    check_int "3-input and" (if code = 7 then 1 else 0) y
  done

let test_bench_errors () =
  let expect_fail src =
    match Benchfmt.parse src with
    | Error (Mutsamp_robust.Error.Parse_error _) -> ()
    | Error e -> Alcotest.fail ("wrong error: " ^ Mutsamp_robust.Error.to_string e)
    | Ok _ -> Alcotest.fail "should reject"
  in
  expect_fail "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  expect_fail "INPUT(a)\nOUTPUT(y)\ny = AND(a, zz)\n";
  expect_fail "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n";
  expect_fail "INPUT(a)\nOUTPUT(y)\nbogus line\n"

let test_bench_export_all_circuits_reimport () =
  List.iter
    (fun (e : Registry.entry) ->
      let nl = Flow.synthesize (e.Registry.design ()) in
      let nl2 = bench_of_string ~name:e.Registry.name (Benchfmt.to_string nl) in
      check_int (e.Registry.name ^ " dffs") (Netlist.num_dffs nl) (Netlist.num_dffs nl2);
      (* Spot-check behaviour on a few random cycles. *)
      let s1 = Bitsim.create nl and s2 = Bitsim.create nl2 in
      Bitsim.reset s1;
      Bitsim.reset s2;
      let prng = Prng.create 77 in
      let n_in = Array.length nl.Netlist.input_nets in
      for _ = 1 to 8 do
        let words =
          Array.init n_in (fun _ -> if Prng.bool prng then Bitsim.all_ones else 0)
        in
        check_bool (e.Registry.name ^ " behaviour") true
          (Bitsim.step s1 words = Bitsim.step s2 words)
      done)
    Registry.all

(* Random small netlists for structural property tests: a few inputs,
   a pile of random gates, a couple of flip-flops, random outputs. *)
let random_netlist seed =
  let prng = Prng.create seed in
  let b = B.create (Printf.sprintf "rand%d" seed) in
  let n_inputs = 2 + Prng.int prng 3 in
  let pool = ref (List.init n_inputs (fun k -> B.input b (Printf.sprintf "i%d" k))) in
  let dffs =
    List.init (Prng.int prng 3) (fun _ ->
        let q = B.dff b ~init:(Prng.bool prng) in
        pool := q :: !pool;
        q)
  in
  let pick () = Prng.pick_list prng !pool in
  for _ = 1 to 6 + Prng.int prng 12 do
    let x = pick () and y = pick () in
    let g =
      match Prng.int prng 7 with
      | 0 -> B.and_ b x y
      | 1 -> B.or_ b x y
      | 2 -> B.xor_ b x y
      | 3 -> B.nand_ b x y
      | 4 -> B.nor_ b x y
      | 5 -> B.xnor_ b x y
      | _ -> B.not_ b x
    in
    pool := g :: !pool
  done;
  List.iter (fun q -> B.connect_dff b q ~d:(pick ())) dffs;
  let n_outputs = 1 + Prng.int prng 3 in
  for k = 0 to n_outputs - 1 do
    B.output b (Printf.sprintf "o%d" k) (pick ())
  done;
  B.finalize b

let same_behaviour ?(cycles = 12) seed nl1 nl2 =
  let s1 = Bitsim.create nl1 and s2 = Bitsim.create nl2 in
  Bitsim.reset s1;
  Bitsim.reset s2;
  let prng = Prng.create seed in
  let n_in = Array.length nl1.Netlist.input_nets in
  let ok = ref true in
  for _ = 1 to cycles do
    let words = Array.init n_in (fun _ -> if Prng.bool prng then Bitsim.all_ones else 0) in
    if Bitsim.step s1 words <> Bitsim.step s2 words then ok := false
  done;
  !ok

let prop_bench_roundtrip_random =
  QCheck.Test.make ~name:".bench roundtrip on random netlists" ~count:80
    (QCheck.make QCheck.Gen.(int_range 0 1000000)) (fun seed ->
      let nl = random_netlist seed in
      let nl2 = bench_of_string ~name:"rt" (Benchfmt.to_string nl) in
      same_behaviour (seed + 1) nl nl2)

(* ------------------------------------------------------------------ *)
(* Vcd                                                                *)
(* ------------------------------------------------------------------ *)

module Vcd = Mutsamp_netlist.Vcd

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_vcd_structure () =
  let nl = full_adder () in
  let sim = Bitsim.create nl in
  let rec_ = Vcd.create nl ~timescale:"1ns" in
  for code = 0 to 3 do
    ignore (Bitsim.step sim (Array.init 3 (fun k -> if (code lsr k) land 1 = 1 then Bitsim.all_ones else 0)));
    Vcd.sample rec_ sim
  done;
  let out = Vcd.contents rec_ in
  check_bool "timescale" true (contains out "$timescale 1ns $end");
  check_bool "module scope" true (contains out "$scope module fa $end");
  check_bool "declares input a" true (contains out " a $end");
  check_bool "has four timestamps" true (contains out "#3");
  check_bool "enddefinitions" true (contains out "$enddefinitions $end")

let test_vcd_change_compression () =
  (* A constant signal appears once (at #0), not at every timestamp. *)
  let b = B.create "t" in
  let a = B.input b "a" in
  B.output b "y" a;
  let nl = B.finalize b in
  let sim = Bitsim.create nl in
  let rec_ = Vcd.create nl ~timescale:"1ns" in
  for _ = 1 to 4 do
    ignore (Bitsim.step sim [| 0 |]);
    Vcd.sample rec_ sim
  done;
  let out = Vcd.contents rec_ in
  (* Count value-change lines for the single net: exactly one "0!" *)
  let changes =
    List.length
      (List.filter (fun l -> l = "0!") (String.split_on_char '\n' out))
  in
  check_int "one change" 1 changes

(* ------------------------------------------------------------------ *)
(* b04                                                                *)
(* ------------------------------------------------------------------ *)

let b04_design () =
  match Registry.find "b04" with
  | Some e -> e.Registry.design ()
  | None -> Alcotest.fail "b04 missing"

let b04_stim restart data = [ ("restart", bv 1 restart); ("data", bv 8 data) ]

let test_b04_tracks_spread () =
  let d = b04_design () in
  let outs = Sim.run d [ b04_stim 1 100; b04_stim 0 150; b04_stim 0 80; b04_stim 0 120 ] in
  let dout i = Bitvec.to_int (List.assoc "dout" (List.nth outs i)) in
  check_int "restart clears" 0 (dout 0);
  (* After restart at 100: cycle1 sees rmax=rmin=100 -> spread 0, then
     150 and 80 widen it. *)
  check_int "cycle1 spread" 0 (dout 1);
  check_int "cycle2 spread" 50 (dout 2);
  check_int "cycle3 spread" 70 (dout 3)

let test_b04_fresh_pulse () =
  let d = b04_design () in
  let outs = Sim.run d [ b04_stim 1 10; b04_stim 0 10 ] in
  check_int "fresh on restart" 1
    (Bitvec.to_int (List.assoc "fresh" (List.nth outs 0)));
  check_int "fresh off after" 0
    (Bitvec.to_int (List.assoc "fresh" (List.nth outs 1)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "extras.benchfmt",
      [
        Alcotest.test_case "import c17" `Quick test_bench_import_c17;
        Alcotest.test_case "roundtrip comb" `Quick test_bench_roundtrip_combinational;
        Alcotest.test_case "roundtrip seq + init" `Quick test_bench_roundtrip_sequential_with_init;
        Alcotest.test_case "n-ary decomposition" `Quick test_bench_nary_decomposition;
        Alcotest.test_case "errors" `Quick test_bench_errors;
        Alcotest.test_case "export/import all" `Quick test_bench_export_all_circuits_reimport;
        q prop_bench_roundtrip_random;
      ] );
    ( "extras.vcd",
      [
        Alcotest.test_case "structure" `Quick test_vcd_structure;
        Alcotest.test_case "change compression" `Quick test_vcd_change_compression;
      ] );
    ( "extras.b04",
      [
        Alcotest.test_case "tracks spread" `Quick test_b04_tracks_spread;
        Alcotest.test_case "fresh pulse" `Quick test_b04_fresh_pulse;
      ] );
  ]
