(* Static analysis: rule registry, constant propagation, HDL and
   netlist lint, the expression normalizer, untestability proofs
   checked against exact SAT, waivers and the run-report section. *)

module Ast = Mutsamp_hdl.Ast
module Parser = Mutsamp_hdl.Parser
module Check = Mutsamp_hdl.Check
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Topo = Mutsamp_netlist.Topo
module B = Netlist.Builder
module Flow = Mutsamp_synth.Flow
module Fault = Mutsamp_fault.Fault
module Satgen = Mutsamp_atpg.Satgen
module Topoff = Mutsamp_atpg.Topoff
module Registry = Mutsamp_circuits.Registry
module Metrics = Mutsamp_obs.Metrics
module Json = Mutsamp_obs.Json
module Runreport = Mutsamp_obs.Runreport
module Rule = Mutsamp_analysis.Rule
module Diag = Mutsamp_analysis.Diag
module Constprop = Mutsamp_analysis.Constprop
module Untestable = Mutsamp_analysis.Untestable
module Exprnorm = Mutsamp_analysis.Exprnorm
module Engine = Mutsamp_analysis.Engine
module Nl_lint = Mutsamp_analysis.Nl_lint
module Domtree = Mutsamp_analysis.Domtree
module Regions = Mutsamp_netlist.Regions
module Stats = Mutsamp_netlist.Stats
module Collapse = Mutsamp_fault.Collapse
module Scan = Mutsamp_atpg.Scan

let parse src =
  Check.elaborate (Mutsamp_robust.Error.ok_exn (Parser.design_result src))
let design name = (Option.get (Registry.find name)).Registry.design ()

let counter_value snap name =
  match List.assoc_opt name snap.Metrics.counters with Some n -> n | None -> 0

(* ------------------------------------------------------------------ *)
(* Rule registry                                                      *)
(* ------------------------------------------------------------------ *)

let test_rule_catalogue () =
  let ids = List.map (fun (r : Rule.t) -> r.Rule.id) Rule.all in
  Alcotest.(check bool) "sorted" true (List.sort compare ids = ids);
  Alcotest.(check int)
    "unique ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool) ("find " ^ r.Rule.id) true (Rule.find r.Rule.id = Some r))
    Rule.all

let test_rule_find () =
  Alcotest.(check bool) "case-insensitive" true
    (Rule.find "hdl001" = Some Rule.hdl_self_assign);
  Alcotest.(check bool) "unknown" true (Rule.find "ZZZ999" = None);
  Alcotest.(check string) "severity names" "error,warning,info"
    (String.concat ","
       (List.map Rule.severity_name [ Rule.Error; Rule.Warning; Rule.Info ]))

(* ------------------------------------------------------------------ *)
(* Constant propagation                                               *)
(* ------------------------------------------------------------------ *)

(* The builder's structural hashing never folds complementary pairs,
   so every gate below survives into the netlist; constprop must prove
   each one anyway. *)
let test_constprop_complementary_pairs () =
  let b = B.create "cp" in
  let x = B.input b "x" in
  let nx = B.not_ b x in
  let pairs =
    [
      ("and", B.and_ b x nx, Constprop.Zero);
      ("or", B.or_ b x nx, Constprop.One);
      ("nand", B.nand_ b x nx, Constprop.One);
      ("nor", B.nor_ b x nx, Constprop.Zero);
      ("xor", B.xor_ b x nx, Constprop.One);
      ("xnor", B.xnor_ b x nx, Constprop.Zero);
    ]
  in
  List.iteri (fun i (name, net, _) -> B.output b (name ^ string_of_int i) net) pairs;
  let nl = B.finalize b in
  let cp = Constprop.compute nl in
  List.iter
    (fun (name, net, expect) ->
      Alcotest.(check bool) name true (Constprop.value cp net = expect))
    pairs;
  Alcotest.(check bool) "x itself unknown" true
    (Constprop.value cp x = Constprop.Unknown);
  Alcotest.(check bool) "some constant nets" true (Constprop.num_constant cp >= 6)

(* A flip-flop is pinned only when its D input is proved equal to the
   reset value: D = and(x, not x) = 0 with init=false pins Q to 0; a
   self-feeding register stays Unknown. *)
let test_constprop_dff () =
  let b = B.create "cpdff" in
  let x = B.input b "x" in
  let q_pinned = B.dff b ~init:false in
  B.connect_dff b q_pinned ~d:(B.and_ b x (B.not_ b x));
  let q_free = B.dff b ~init:false in
  B.connect_dff b q_free ~d:(B.and_ b q_free x);
  B.output b "a" q_pinned;
  B.output b "b" q_free;
  let nl = B.finalize b in
  let cp = Constprop.compute nl in
  Alcotest.(check bool) "pinned dff is Zero" true
    (Constprop.value cp q_pinned = Constprop.Zero);
  Alcotest.(check bool) "self-feeding dff unknown" true
    (Constprop.value cp q_free = Constprop.Unknown)

(* ------------------------------------------------------------------ *)
(* HDL lint                                                           *)
(* ------------------------------------------------------------------ *)

let lintbad_src =
  {|design lintbad is
  input a : bit;
  input unused : bit;
  output y : bit;
  output z : bit;
  output w : bit;
  reg selfy : bit := 0;
  reg dead : bit := 0;
  reg ghost : bit := 0;
begin
  y := a;
  y := not a;
  selfy := selfy;
  dead := a;
  if '1' = '1' then
    z := a xor ghost;
  else
    z := not a;
  end if;
end design;|}

let test_hdl_lint_fixture () =
  let d = parse lintbad_src in
  let diags = Engine.lint_design Engine.default_options ~circuit:"lintbad" d in
  let ids = List.map (fun dg -> dg.Diag.rule.Rule.id) diags in
  Alcotest.(check (list string)) "rule ids, severity-sorted"
    [ "HDL006"; "HDL001"; "HDL002"; "HDL003"; "HDL004"; "HDL004"; "HDL005"; "HDL007" ]
    ids;
  Alcotest.(check int) "one error" 1 (Engine.error_count ~strict:false diags);
  Alcotest.(check int) "strict counts all" 8 (Engine.error_count ~strict:true diags);
  let by_loc loc = List.find (fun dg -> dg.Diag.loc = loc) diags in
  Alcotest.(check string) "unassigned output is the error" "HDL006"
    (by_loc "w").Diag.rule.Rule.id;
  Alcotest.(check string) "dead store anchored to signal" "HDL004"
    (by_loc "y").Diag.rule.Rule.id

let test_hdl_lint_clean_design () =
  let d = design "b01" in
  let diags = Engine.lint_design Engine.default_options ~circuit:"b01" d in
  Alcotest.(check int) "b01 lint-clean" 0 (List.length diags)

(* ------------------------------------------------------------------ *)
(* Netlist lint                                                       *)
(* ------------------------------------------------------------------ *)

let test_netlist_lint_fixture () =
  let b = B.create "nlbad" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let _unused = B.input b "unused" in
  let blocked = B.and_ b x (B.not_ b x) in
  let extra = B.and_ b blocked y in
  B.output b "o1" (B.or_ b x extra);
  let nl = B.finalize b in
  let diags = Engine.lint_netlist Engine.default_options ~circuit:"nlbad" nl in
  let count id =
    List.length (List.filter (fun dg -> dg.Diag.rule.Rule.id = id) diags)
  in
  Alcotest.(check int) "two constant nets (NL001)" 2 (count "NL001");
  Alcotest.(check int) "unused PI (NL003)" 1 (count "NL003");
  Alcotest.(check int) "blocked PI (NL004)" 1 (count "NL004");
  (* not(x) needs x = 1 to pass the AND it feeds but x = 0 at the
     reconverging OR: the post-dominator rule proves the stem dead. *)
  Alcotest.(check int) "dominator conflict (NL008)" 1 (count "NL008");
  Alcotest.(check int) "nothing else" (List.length diags)
    (count "NL001" + count "NL003" + count "NL004" + count "NL008")

let test_netlist_lint_no_observability () =
  let b = B.create "nlbad2" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let blocked = B.and_ b x (B.not_ b x) in
  B.output b "o" (B.and_ b blocked y);
  let nl = B.finalize b in
  let opts = { Engine.default_options with Engine.check_observability = false } in
  let diags = Engine.lint_netlist opts ~circuit:"nlbad2" nl in
  Alcotest.(check bool) "NL004 suppressed" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL004") diags)

let test_registry_lint_clean () =
  (* Satellite (b): the whole circuit registry is lint-clean with the
     default ruleset, designs and synthesized netlists both. *)
  List.iter
    (fun (e : Registry.entry) ->
      let d = e.Registry.design () in
      let dd = Engine.lint_design Engine.default_options ~circuit:e.Registry.name d in
      Alcotest.(check int) (e.Registry.name ^ " design clean") 0 (List.length dd);
      let nd =
        Engine.lint_netlist Engine.default_options ~circuit:e.Registry.name
          (Flow.synthesize d)
      in
      Alcotest.(check int) (e.Registry.name ^ " netlist clean") 0 (List.length nd))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Expression normalizer                                              *)
(* ------------------------------------------------------------------ *)

(* Random well-typed expressions over three narrow inputs (5 bits in
   all, so every input assignment can be simulated). [gen w n] has
   width [w] and shrinks [n] at each level; shared operands ([x op x],
   [x op not x]) make the algebraic identities fire often. *)
let norm_inputs = [ ("a", 2); ("b", 2); ("c", 1) ]

let gen_norm_expr =
  let open QCheck.Gen in
  let binops = Ast.[ And; Or; Xor; Nand; Nor; Xnor; Add; Sub ] in
  let relational = Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let leaf w =
    let const = map (fun v -> Ast.const ~width:w v) (int_bound ((1 lsl w) - 1)) in
    let named =
      match List.filter (fun (_, wn) -> wn = w) norm_inputs with
      | [] -> map (fun (n, _) -> Ast.Resize (Ast.Ref n, w)) (oneofl norm_inputs)
      | refs -> map (fun (n, _) -> Ast.Ref n) (oneofl refs)
    in
    frequency [ (1, const); (2, named) ]
  in
  let shared ops x =
    oneofl ops >>= fun op ->
    oneofl
      [ Ast.Binop (op, x, x); Ast.Binop (op, x, Ast.Unop (Ast.Not, x));
        Ast.Binop (op, Ast.Unop (Ast.Not, x), x) ]
  in
  let rec gen w n =
    if n <= 0 then leaf w
    else
      let sub v = gen v (n / 2) in
      let any_width = int_range 1 3 in
      frequency
        ([ (1, leaf w);
           (2, map (fun x -> Ast.Unop (Ast.Not, x)) (sub w));
           (4, map3 (fun op x y -> Ast.Binop (op, x, y)) (oneofl binops) (sub w) (sub w));
           (3, sub w >>= shared binops);
           ( 1,
             int_range w 4 >>= fun v ->
             sub v >>= fun x ->
             map (fun lo -> Ast.Slice (x, lo + w - 1, lo)) (int_bound (v - w)) );
           (1, any_width >>= fun v -> map (fun x -> Ast.Resize (x, w)) (sub v)) ]
        @ (if w = 1 then
             [ ( 3,
                 any_width >>= fun v ->
                 map3 (fun op x y -> Ast.Binop (op, x, y)) (oneofl relational) (sub v)
                   (sub v) );
               (2, any_width >>= fun v -> sub v >>= shared relational);
               ( 1,
                 any_width >>= fun v ->
                 map2 (fun x i -> Ast.Bit (x, i)) (sub v) (int_bound (v - 1)) ) ]
           else
             [ ( 1,
                 int_range 1 (w - 1) >>= fun wa ->
                 map2 (fun x y -> Ast.Concat (x, y)) (sub wa) (sub (w - wa)) ) ]))
  in
  int_range 1 4 >>= fun w -> map (fun e -> (w, e)) (int_range 0 12 >>= gen w)

(* The expression as the single assignment [y := e] of an elaborated
   design, returned with that design. *)
let norm_design (w, e) =
  let decl kind (name, width) = { Ast.name; width; kind } in
  let d =
    Check.elaborate
      {
        Ast.name = "norm";
        decls =
          List.map (decl Ast.Input) norm_inputs @ [ decl Ast.Output ("y", w) ];
        body = [ Ast.Assign ("y", e) ];
      }
  in
  match d.Ast.body with [ Ast.Assign (_, e) ] -> (d, e) | _ -> assert false

let norm_folds d e =
  match Exprnorm.normalize_expr d e with Ast.Const l -> Some l.Ast.value | _ -> None

(* Whenever the normalizer folds an expression to a literal, the
   simulator yields that literal under every input assignment. *)
let prop_exprnorm_folds_soundly =
  QCheck.Test.make ~name:"folded literal = simulated value everywhere" ~count:2000
    (QCheck.make ~print:(fun (_, e) -> Mutsamp_hdl.Pretty.expr e) gen_norm_expr)
    (fun we ->
      let d, e = norm_design we in
      match norm_folds d e with
      | None -> true
      | Some v ->
        let sim = Sim.create d in
        List.for_all
          (fun stim ->
            match Sim.step sim stim with
            | [ (_, y) ] -> Mutsamp_util.Bitvec.to_int y = v
            | _ -> false)
          (List.init (1 lsl Stimuli.input_bits d) (Stimuli.of_code d)))

(* The property above only has teeth if folds are common, and not only
   of constant-only subtrees: a fixed sample must fold expressions that
   read an input in a fair share of cases. *)
let test_exprnorm_folds_often () =
  let rand = Random.State.make [| 7 |] in
  let folds = ref 0 in
  for _ = 1 to 400 do
    let d, e = norm_design (gen_norm_expr rand) in
    if norm_folds d e <> None
       && List.exists (fun (n, _) -> Exprnorm.expr_reads_name n e) norm_inputs
    then incr folds
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 400 input-reading expressions fold" !folds)
    true (!folds >= 40)

(* ------------------------------------------------------------------ *)
(* Untestability proofs and the ATPG prefilter                        *)
(* ------------------------------------------------------------------ *)

(* Copy a combinational netlist through the builder and graft a
   statically-provable redundant cone onto the first output:
   blocked = and(x, not x) is a complementary pair the builder never
   folds, so constprop proves it 0 and SA0 on the cone is untestable
   (NL001); masked = xnor(x, y) reaches the output only through an AND
   with [blocked], so both its stuck-at faults are unobservable
   (NL004). *)
let augment (nl : Netlist.t) =
  let b = B.create (nl.Netlist.name ^ "_red") in
  let n = Array.length nl.Netlist.gates in
  let copy = Array.make n (-1) in
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.Gate.kind with
      | Gate.Pi name -> copy.(i) <- B.input b name
      | Gate.Const v -> copy.(i) <- B.const b v
      | _ -> ())
    nl.Netlist.gates;
  let topo = Topo.compute nl in
  Array.iter
    (fun i ->
      let g = nl.Netlist.gates.(i) in
      let a () = copy.(g.Gate.fanins.(0)) in
      let c () = copy.(g.Gate.fanins.(1)) in
      copy.(i) <-
        (match g.Gate.kind with
         | Gate.Buf -> B.buf b (a ())
         | Gate.Not -> B.not_ b (a ())
         | Gate.And -> B.and_ b (a ()) (c ())
         | Gate.Or -> B.or_ b (a ()) (c ())
         | Gate.Nand -> B.nand_ b (a ()) (c ())
         | Gate.Nor -> B.nor_ b (a ()) (c ())
         | Gate.Xor -> B.xor_ b (a ()) (c ())
         | Gate.Xnor -> B.xnor_ b (a ()) (c ())
         | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> assert false))
    topo.Topo.order;
  let x = copy.(nl.Netlist.input_nets.(0)) in
  let y = copy.(nl.Netlist.input_nets.(1)) in
  let blocked = B.and_ b x (B.not_ b x) in
  let masked = B.xnor_ b x y in
  let extra = B.and_ b blocked (B.or_ b y masked) in
  Array.iteri
    (fun k (name, net) ->
      if k = 0 then B.output b name (B.or_ b copy.(net) extra)
      else B.output b name copy.(net))
    nl.Netlist.output_list;
  B.finalize b

let augmented name = augment (Flow.synthesize (design name))

let sat_untestable nl f =
  Mutsamp_robust.Error.ok_exn (Satgen.generate nl f) = Satgen.Untestable

let stem net polarity = { Fault.site = Fault.Stem net; Fault.polarity = polarity }

(* The stem faults the netlist lint rules prove untestable, each with
   the id of the rule that proves it: both polarities on a net NL004 or
   NL008 reports as blocked, and the constant-matching polarity on a
   net NL001 reports as constant. *)
let lint_proved_faults ~circuit nl =
  let cp = Constprop.compute nl in
  List.concat_map
    (fun dg ->
      let id = dg.Diag.rule.Rule.id in
      let net = Scanf.sscanf dg.Diag.loc "net%d" Fun.id in
      let polarities =
        match id, Constprop.value cp net with
        | ("NL004" | "NL008"), _ -> [ Fault.Stuck_at_0; Fault.Stuck_at_1 ]
        | "NL001", Constprop.Zero -> [ Fault.Stuck_at_0 ]
        | "NL001", Constprop.One -> [ Fault.Stuck_at_1 ]
        | _ -> []
      in
      List.map (fun p -> (id, stem net p)) polarities)
    (Nl_lint.run ~circuit nl)

(* Every fault a lint rule proves untestable must be confirmed by the
   exact SAT engine — the static proofs are sound, never just
   heuristic. *)
let untestable_proofs_confirmed name =
  let nl = augmented name in
  let proved = lint_proved_faults ~circuit:name nl in
  List.iter
    (fun id ->
      Alcotest.(check bool) (name ^ ": " ^ id ^ " proves some faults") true
        (List.mem_assoc id proved))
    [ "NL001"; "NL004" ];
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool)
        (name ^ ": SAT confirms " ^ Fault.to_string f)
        true (sat_untestable nl f))
    proved

let test_untestable_sound_c17 () = untestable_proofs_confirmed "c17"
let test_untestable_sound_c432 () = untestable_proofs_confirmed "c432"

(* SAT top-off with no random phase is an exact classifier: nothing is
   aborted, [untestable] is the number of collapsed representatives SAT
   proves redundant on its own, and the final test set detects every
   other representative under the serial reference simulator. *)
let topoff_exact name nl =
  let faults = (Collapse.run nl).Collapse.representatives in
  let r =
    Topoff.run ~generator:Topoff.Use_sat ~random_budget:0 ~seed:7 nl ~faults
      ~seed_patterns:[||]
  in
  let redundant = List.length (List.filter (sat_untestable nl) faults) in
  Alcotest.(check int) (name ^ ": nothing aborted") 0 r.Topoff.aborted;
  Alcotest.(check int) (name ^ ": untestable = SAT-redundant") redundant
    r.Topoff.untestable;
  let detected =
    (Mutsamp_fault.Fsim.serial nl ~faults ~sequence:r.Topoff.test_set)
      .Mutsamp_fault.Fsim.detected
  in
  Alcotest.(check int) (name ^ ": test set detects every testable fault")
    (r.Topoff.total_faults - r.Topoff.untestable)
    detected

let test_topoff_exact_c17 () = topoff_exact "c17" (augmented "c17")
let test_topoff_exact_c432 () = topoff_exact "c432" (augmented "c432")

let test_topoff_exact_b03 () =
  topoff_exact "b03" (Scan.full_scan (Flow.synthesize (design "b03")))

(* ------------------------------------------------------------------ *)
(* Structural dataflow engine: dominator trees                        *)
(* ------------------------------------------------------------------ *)

(* Brute-force reference: [d] dominates [v] iff deleting [d] leaves [v]
   unreachable from the virtual root (which has an edge to every entry
   in [roots]); [None] when [v] is unreachable to begin with. *)
let brute_dominators ~n ~succs ~roots v =
  let reachable_avoiding d =
    let seen = Array.make n false in
    let rec go u =
      if u <> d && not seen.(u) then begin
        seen.(u) <- true;
        List.iter go succs.(u)
      end
    in
    List.iter go roots;
    seen.(v)
  in
  if not (reachable_avoiding (-1)) then None
  else
    Some
      (List.filter
         (fun d -> d <> v && not (reachable_avoiding d))
         (List.init n Fun.id))

let domtree_matches_brute ~n ~succs ~roots =
  let t = Domtree.compute ~n ~succs ~roots in
  List.for_all
    (fun v ->
      match brute_dominators ~n ~succs ~roots v with
      | None -> t.Domtree.idom.(v) < 0
      | Some doms ->
        t.Domtree.idom.(v) >= 0
        && List.sort compare (Domtree.dominators t v) = doms)
    (List.init n Fun.id)

let test_domtree_handcrafted () =
  (* Diamond: the fork dominates the join, neither branch does. *)
  let succs = [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  Alcotest.(check bool) "diamond matches brute force" true
    (domtree_matches_brute ~n:4 ~succs ~roots:[ 0 ]);
  let t = Domtree.compute ~n:4 ~succs ~roots:[ 0 ] in
  Alcotest.(check (list int)) "join's only strict dominator is the fork" [ 0 ]
    (Domtree.dominators t 3);
  Alcotest.(check bool) "dominates is reflexive" true (Domtree.dominates t 3 3);
  Alcotest.(check bool) "fork dominates join" true (Domtree.dominates t 0 3);
  Alcotest.(check bool) "a branch does not" false (Domtree.dominates t 1 3);
  (* A second entry point breaks the fork's dominance. *)
  Alcotest.(check bool) "multi-root matches brute force" true
    (domtree_matches_brute ~n:4 ~succs ~roots:[ 0; 2 ]);
  let t2 = Domtree.compute ~n:4 ~succs ~roots:[ 0; 2 ] in
  Alcotest.(check (list int)) "join undominated under two roots" []
    (Domtree.dominators t2 3);
  (* Unreachable node: idom = -1, empty chain. *)
  let succs3 = [| [ 1 ]; []; [ 1 ] |] in
  let t3 = Domtree.compute ~n:3 ~succs:succs3 ~roots:[ 0 ] in
  Alcotest.(check int) "unreachable idom" (-1) t3.Domtree.idom.(2);
  Alcotest.(check (list int)) "unreachable chain" [] (Domtree.dominators t3 2);
  Alcotest.(check bool) "unreachable matches brute force" true
    (domtree_matches_brute ~n:3 ~succs:succs3 ~roots:[ 0 ])

let prop_domtree_random_dags =
  let arb =
    QCheck.make
      ~print:(fun (n, bits) ->
        Printf.sprintf "n=%d edges=%s" n
          (String.concat "" (List.map (fun b -> if b then "1" else "0") bits)))
      QCheck.Gen.(
        int_range 2 12 >>= fun n ->
        list_repeat (n * n) bool >|= fun bits -> (n, bits))
  in
  QCheck.Test.make ~name:"domtree matches brute force on random DAGs"
    ~count:100 arb
    (fun (n, bits) ->
      let succs = Array.make n [] in
      List.iteri
        (fun k b ->
          let i = k / n and j = k mod n in
          if b && i < j then succs.(i) <- j :: succs.(i))
        bits;
      (* Sources act as the roots, so every node is reachable; the
         handcrafted cases cover unreachable nodes. *)
      let has_pred = Array.make n false in
      Array.iter (List.iter (fun j -> has_pred.(j) <- true)) succs;
      let roots = List.filter (fun v -> not has_pred.(v)) (List.init n Fun.id) in
      domtree_matches_brute ~n ~succs ~roots)

let test_postdom_netlist () =
  let nl = Flow.synthesize (design "c17") in
  let t = Domtree.post nl in
  let n = Array.length nl.Netlist.gates in
  Alcotest.(check int) "one node per net" n t.Domtree.n;
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool) (Printf.sprintf "net %d observable" i) true
        (t.Domtree.idom.(i) >= 0);
      Alcotest.(check bool) "reflexive" true (Domtree.dominates t i i);
      List.iter
        (fun d ->
          Alcotest.(check bool) "chain holds real nets" true (d >= 0 && d < n))
        (Domtree.dominators t i))
    nl.Netlist.gates

(* ------------------------------------------------------------------ *)
(* Fanout-free regions and reconvergent stems                         *)
(* ------------------------------------------------------------------ *)

(* A six-gate AND chain re-using one side input: the whole chain (and
   the single-fanout PI feeding it) collapses into the PO driver's
   region, while y is a reconvergent stem whose own region holds no
   logic. Hand-derived numbers. *)
let chain_fixture () =
  let b = B.create "chain" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let c = ref (B.and_ b x y) in
  for _ = 2 to 6 do
    c := B.and_ b !c y
  done;
  B.output b "o" !c;
  (B.finalize b, !c)

let test_regions_chain_fixture () =
  let nl, last = chain_fixture () in
  let r = Regions.compute nl in
  Alcotest.(check int) "two regions" 2 r.Regions.region_count;
  Alcotest.(check int) "chain collapses into the PO driver" 6
    r.Regions.max_region_size;
  Alcotest.(check int) "y reconverges" 1 r.Regions.reconvergence_count;
  Alcotest.(check int) "x chases to the chain head" last
    r.Regions.head.(nl.Netlist.input_nets.(0));
  Alcotest.(check int) "y is its own head" nl.Netlist.input_nets.(1)
    r.Regions.head.(nl.Netlist.input_nets.(1))

let test_regions_stats_registry () =
  (* The per-net region heads add up to the Stats aggregates: every
     logic gate sits in exactly one region. *)
  List.iter
    (fun (e : Registry.entry) ->
      let nl = Flow.synthesize (e.Registry.design ()) in
      let r = Regions.compute nl and s = Stats.compute nl in
      let name = e.Registry.name in
      let size = Hashtbl.create 64 in
      Array.iteri
        (fun v (g : Gate.t) ->
          let logic =
            match g.Gate.kind with
            | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> 0
            | _ -> 1
          in
          let h = r.Regions.head.(v) in
          Hashtbl.replace size h
            (logic + Option.value ~default:0 (Hashtbl.find_opt size h)))
        nl.Netlist.gates;
      Alcotest.(check int) (name ^ ": regions") (Hashtbl.length size)
        s.Stats.regions;
      Alcotest.(check int) (name ^ ": logic gates") s.Stats.logic_gates
        (Hashtbl.fold (fun _ k acc -> k + acc) size 0);
      Alcotest.(check int) (name ^ ": max region") s.Stats.max_region
        (Hashtbl.fold (fun _ k acc -> max k acc) size 0);
      Alcotest.(check bool) (name ^ ": nonempty") true
        (s.Stats.regions > 0 && s.Stats.max_region > 0))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Post-dominator untestability rule (NL008)                         *)
(* ------------------------------------------------------------------ *)

(* z = nor(and(s, x), x) is just ¬x: propagating s through the AND
   demands x = 1, through the dominating NOR x = 0 — every path from s
   is statically blocked. The per-gate may-differ pass cannot see this
   (each gate's side input is individually free); the post-dominator
   side-requirement rule proves it. *)
let conflict_fixture () =
  let b = B.create "conflict" in
  let s = B.input b "s" in
  let x = B.input b "x" in
  let y = B.and_ b s x in
  let z = B.nor_ b y x in
  B.output b "z" z;
  (B.finalize b, s)

let test_nl008_proofs_sat_confirmed () =
  let nl, s = conflict_fixture () in
  let ut = Untestable.analyze nl in
  Alcotest.(check bool) "may-differ pass alone is blind here" true
    (Untestable.stem_observable ut s);
  Metrics.set_enabled true;
  Metrics.reset ();
  let proved = lint_proved_faults ~circuit:"conflict" nl in
  let snap = Metrics.snapshot () in
  Metrics.set_enabled false;
  List.iter
    (fun polarity ->
      let f = stem s polarity in
      Alcotest.(check bool) (Fault.to_string f ^ " proved by NL008") true
        (List.mem ("NL008", f) proved))
    [ Fault.Stuck_at_0; Fault.Stuck_at_1 ];
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) (Fault.to_string f ^ " SAT-confirmed") true
        (sat_untestable nl f))
    proved;
  Alcotest.(check bool) "domtree build counted" true
    (counter_value snap "analysis.domtree.builds" >= 1)

let test_nl008_fires_on_conflict () =
  let nl, s = conflict_fixture () in
  let diags = Nl_lint.run ~circuit:"conflict" nl in
  let nl008 = List.filter (fun dg -> dg.Diag.rule.Rule.id = "NL008") diags in
  Alcotest.(check int) "exactly one finding" 1 (List.length nl008);
  let dg = List.hd nl008 in
  Alcotest.(check string) "anchored to the blocked stem"
    (Printf.sprintf "net%d" s)
    dg.Diag.loc;
  Alcotest.(check bool) "warning severity" true
    (dg.Diag.rule.Rule.severity = Rule.Warning);
  (* Skipped together with the quadratic observability passes. *)
  let off = Nl_lint.run ~check_observability:false ~circuit:"conflict" nl in
  Alcotest.(check bool) "skipped by check_observability:false" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL008") off);
  (* Unsound across register boundaries, so gated off on sequential
     netlists: the same blocked cone plus one unrelated flop. *)
  let b = B.create "conflictseq" in
  let s2 = B.input b "s" in
  let x2 = B.input b "x" in
  let q = B.dff b ~init:false in
  B.connect_dff b q ~d:s2;
  B.output b "q" q;
  B.output b "z" (B.nor_ b (B.and_ b s2 x2) x2);
  let seq = B.finalize b in
  let dseq = Nl_lint.run ~circuit:"conflictseq" seq in
  Alcotest.(check bool) "gated off on sequential netlists" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL008") dseq)

let test_nl007_threshold () =
  let b = B.create "hotspot" in
  let s = B.input b "s" in
  let t = B.input b "t" in
  let u = B.input b "u" in
  let g1 = B.and_ b s t in
  let g2 = B.and_ b s u in
  B.output b "o" (B.or_ b g1 g2);
  let nl = B.finalize b in
  let fired = Nl_lint.run ~hotspot_fanout:2 ~circuit:"hotspot" nl in
  Alcotest.(check bool) "reconvergent stem flagged at threshold 2" true
    (List.exists
       (fun dg ->
         dg.Diag.rule.Rule.id = "NL007"
         && dg.Diag.loc = Printf.sprintf "net%d" s)
       fired);
  let silent = Nl_lint.run ~circuit:"hotspot" nl in
  Alcotest.(check bool) "default threshold is silent" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL007") silent);
  (* Width without reconvergence is not the smell. *)
  let b2 = B.create "wide" in
  let w = B.input b2 "w" in
  let p = B.input b2 "p" in
  let q = B.input b2 "q" in
  B.output b2 "a" (B.and_ b2 w p);
  B.output b2 "b" (B.and_ b2 w q);
  let nl2 = B.finalize b2 in
  let d2 = Nl_lint.run ~hotspot_fanout:2 ~circuit:"wide" nl2 in
  Alcotest.(check bool) "non-reconvergent fanout is silent" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL007") d2)

let test_nl009_threshold () =
  let nl, last = chain_fixture () in
  let fired = Nl_lint.run ~max_region:5 ~circuit:"chain" nl in
  Alcotest.(check bool) "oversized region flagged at its head" true
    (List.exists
       (fun dg ->
         dg.Diag.rule.Rule.id = "NL009"
         && dg.Diag.loc = Printf.sprintf "net%d" last)
       fired);
  let silent = Nl_lint.run ~circuit:"chain" nl in
  Alcotest.(check bool) "default threshold is silent" true
    (List.for_all (fun dg -> dg.Diag.rule.Rule.id <> "NL009") silent)

(* ------------------------------------------------------------------ *)
(* Waivers, summary, report section                                   *)
(* ------------------------------------------------------------------ *)

let test_retired_rules () =
  Alcotest.(check (list string)) "retired ids"
    [ "ATP001"; "ATP002"; "MUT001"; "MUT002" ]
    (List.map fst Rule.retired);
  List.iter
    (fun (id, reason) ->
      Alcotest.(check bool) (id ^ " never reused") true (Rule.find id = None);
      Alcotest.(check bool) (id ^ " not in the catalogue") false
        (List.exists (fun (r : Rule.t) -> r.Rule.id = id) Rule.all);
      Alcotest.(check bool) (id ^ " has a reason") true
        (String.length reason > 0);
      Alcotest.(check bool) (id ^ " found case-insensitively") true
        (Rule.find_retired (String.lowercase_ascii id) = Some (id, reason));
      match Engine.waiver_of_string id with
      | Ok _ -> Alcotest.fail (id ^ ": retired id accepted as waiver")
      | Error msg ->
        Alcotest.(check bool)
          (id ^ ": message names the retirement")
          true
          (String.length msg >= 7 && String.sub msg 0 7 = "retired"))
    Rule.retired;
  Alcotest.(check bool) "unknown id is not retired" true
    (Rule.find_retired "ZZZ999" = None)

let test_waiver_parsing () =
  (match Engine.waiver_of_string "HDL001:selfy" with
   | Ok w ->
     Alcotest.(check string) "rule" "HDL001" w.Engine.rule_id;
     Alcotest.(check string) "loc" "selfy" w.Engine.loc
   | Error e -> Alcotest.fail e);
  (match Engine.waiver_of_string "nl004" with
   | Ok w ->
     Alcotest.(check string) "bare id waives everywhere" "*" w.Engine.loc
   | Error e -> Alcotest.fail e);
  match Engine.waiver_of_string "ZZZ999:x" with
  | Ok _ -> Alcotest.fail "unknown rule id accepted"
  | Error _ -> ()

let test_waivers_applied () =
  let d = parse lintbad_src in
  let waivers =
    List.filter_map
      (fun s -> Result.to_option (Engine.waiver_of_string s))
      [ "HDL006:w"; "HDL004" ]
  in
  let opts = { Engine.default_options with Engine.waivers } in
  let diags = Engine.lint_design opts ~circuit:"lintbad" d in
  let waived = List.filter (fun dg -> dg.Diag.waived) diags in
  Alcotest.(check int) "three waived" 3 (List.length waived);
  Alcotest.(check int) "no unwaived errors" 0 (Engine.error_count ~strict:false diags);
  let summary = Engine.summary diags in
  Alcotest.(check bool) "summary counts waived" true
    (List.assoc_opt "waived" summary = Some 3);
  Alcotest.(check bool) "waived marked in rendering" true
    (List.exists
       (fun dg ->
         dg.Diag.waived
         && String.length (Diag.to_string dg) > 8
         && Diag.to_string dg
            |> fun s ->
            String.sub s (String.length s - 8) 8 = "(waived)")
       diags)

let test_report_section_validates () =
  let d = parse lintbad_src in
  let diags = Engine.lint_design Engine.default_options ~circuit:"lintbad" d in
  Metrics.set_enabled true;
  Metrics.reset ();
  let report =
    Runreport.make ~command:"lint"
      ~extra:[ ("analysis", Engine.report_section diags) ]
      ~spans:[] ~metrics:(Metrics.snapshot ()) ()
  in
  Metrics.set_enabled false;
  (match Runreport.validate report with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* Round-trip through the serialized form. *)
  (match Json.parse (Json.to_string report) with
   | Ok json ->
     (match Runreport.validate json with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("round-trip: " ^ e))
   | Error e -> Alcotest.fail ("parse: " ^ e));
  (* A malformed analysis section must be rejected. *)
  let bad =
    Runreport.make ~command:"lint"
      ~extra:[ ("analysis", Json.Obj [ ("findings", Json.String "three") ]) ]
      ~spans:[]
      ~metrics:{ Metrics.counters = []; Metrics.histograms = [] }
      ()
  in
  match Runreport.validate bad with
  | Ok () -> Alcotest.fail "malformed analysis section accepted"
  | Error _ -> ()

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "analysis.rules",
      [
        Alcotest.test_case "catalogue sorted and unique" `Quick test_rule_catalogue;
        Alcotest.test_case "find" `Quick test_rule_find;
      ] );
    ( "analysis.constprop",
      [
        Alcotest.test_case "complementary pairs" `Quick
          test_constprop_complementary_pairs;
        Alcotest.test_case "dff pinning" `Quick test_constprop_dff;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "hdl fixture" `Quick test_hdl_lint_fixture;
        Alcotest.test_case "clean design" `Quick test_hdl_lint_clean_design;
        Alcotest.test_case "netlist fixture" `Quick test_netlist_lint_fixture;
        Alcotest.test_case "observability pass off" `Quick
          test_netlist_lint_no_observability;
        Alcotest.test_case "registry lint-clean" `Slow test_registry_lint_clean;
        Alcotest.test_case "NL007 hotspot threshold" `Quick test_nl007_threshold;
        Alcotest.test_case "NL008 dominator conflict" `Quick
          test_nl008_fires_on_conflict;
        Alcotest.test_case "NL009 region threshold" `Quick test_nl009_threshold;
      ] );
    ( "analysis.dataflow",
      [
        Alcotest.test_case "domtree handcrafted" `Quick test_domtree_handcrafted;
        q prop_domtree_random_dags;
        Alcotest.test_case "post-dominators over a netlist" `Quick
          test_postdom_netlist;
        Alcotest.test_case "regions chain fixture" `Quick
          test_regions_chain_fixture;
        Alcotest.test_case "regions/stats agree on the registry" `Slow
          test_regions_stats_registry;
      ] );
    ( "analysis.exprnorm",
      [
        q prop_exprnorm_folds_soundly;
        Alcotest.test_case "folds often" `Quick test_exprnorm_folds_often;
      ] );
    ( "analysis.untestable",
      [
        Alcotest.test_case "proofs SAT-confirmed (c17)" `Quick
          test_untestable_sound_c17;
        Alcotest.test_case "proofs SAT-confirmed (c432)" `Slow
          test_untestable_sound_c432;
        Alcotest.test_case "post-dominator rule (NL008)" `Quick
          test_nl008_proofs_sat_confirmed;
        Alcotest.test_case "topoff exact (c17)" `Quick test_topoff_exact_c17;
        Alcotest.test_case "topoff exact (c432)" `Slow test_topoff_exact_c432;
        Alcotest.test_case "topoff exact (b03)" `Slow test_topoff_exact_b03;
      ] );
    ( "analysis.engine",
      [
        Alcotest.test_case "waiver parsing" `Quick test_waiver_parsing;
        Alcotest.test_case "retired rule ids" `Quick test_retired_rules;
        Alcotest.test_case "waivers applied" `Quick test_waivers_applied;
        Alcotest.test_case "report section validates" `Quick
          test_report_section_validates;
      ] );
  ]
