module Ast = Mutsamp_hdl.Ast
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Check = Mutsamp_hdl.Check
module Netlist = Mutsamp_netlist.Netlist
module Product = Mutsamp_netlist.Product
module Lower = Mutsamp_synth.Lower
module Mapping = Mutsamp_synth.Mapping
module Equiv = Mutsamp_sat.Equiv
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos

let c_unknown = Metrics.counter "equiv.unknown"
let c_reused = Metrics.counter "equiv.reused"
let c_structural = Metrics.counter "equiv.structural"

type verdict =
  | Equivalent
  | Distinguished of Sim.stimulus list
  | Unknown

let verdict_name = function
  | Equivalent -> "equivalent"
  | Distinguished _ -> "distinguished"
  | Unknown -> "unknown"

let same_interface a b =
  let sig_of d =
    ( List.map (fun (dc : Ast.decl) -> (dc.name, dc.width)) (Ast.inputs d),
      List.map (fun (dc : Ast.decl) -> (dc.name, dc.width)) (Ast.outputs d) )
  in
  sig_of a = sig_of b

type regime = Search | Miter

type t = {
  runner : Kill.t;  (* the reference's mapping, netlist and program *)
  design : Ast.design;
  regime : regime;
  inputs : Product.inputs option;  (* [None] off the search's limits *)
}

(* Mutation rewrites statements, never declarations, so every mutant
   has its design's registers and inputs: the design alone fixes the
   regime and the search's input codes. *)
let make runner =
  let design = Kill.original runner in
  let sequential = not (Check.is_combinational design) in
  let bits = Stimuli.input_bits design in
  let regime = if sequential || bits <= 16 then Search else Miter in
  let inputs =
    if regime = Miter || (sequential && bits > 12) then None
    else
      Some
        (Product.inputs ~codes:(1 lsl bits)
           ~width:(Mutsamp_netlist.Program.input_bits (Kill.reference runner))
           (fun code -> Mapping.set_inputs (Kill.mapping runner) (Stimuli.of_code design code)))
  in
  { runner; design; regime; inputs }

let regime t = t.regime

(* Gate for gate the same netlist, ports included; the name is left
   out. Equal netlists compute the same function, so their miter is
   UNSAT. *)
let same_netlist (a : Netlist.t) (b : Netlist.t) =
  a.gates = b.gates && a.input_nets = b.input_nets && a.output_list = b.output_list
  && a.dff_nets = b.dff_nets

let budget_or_ambient = function Some b -> b | None -> Budget.ambient ()

(* A counterexample gives one value per input position of the
   reference netlist; its port map reads it back as one stimulus. *)
let solve ?budget mapping netlist =
  match Equiv.check ?budget (Mapping.netlist mapping) netlist with
  | Ok Equiv.Equivalent -> Ok Equivalent
  | Ok (Equiv.Counterexample bits) ->
    Ok (Distinguished [ Mapping.stimulus_of_inputs mapping (Array.get bits) ])
  | Error e -> Error e
  | exception Equiv.Equiv_error _ -> Ok Unknown

(* The search over the two programs, its codes read back as stimuli. *)
let search t inputs mutant =
  match Kill.program t.runner mutant with
  | exception (Lower.Synth_error _ | Mapping.Mapping_error _) -> Unknown
  | program -> (
    match fst (Product.search ~max_states:65536 inputs (Kill.reference t.runner) program) with
    | Product.Equal -> Equivalent
    | Product.Differs codes -> Distinguished (List.map (Stimuli.of_code t.design) codes)
    | Product.Exhausted -> Unknown)

(* A verdict, and whether {!same_netlist} settled it with no solve. *)
let compute ?budget t mutant =
  match t.regime, t.inputs with
  | Search, None -> (Ok Unknown, false)
  | Search, Some inputs -> (Ok (search t inputs mutant), false)
  | Miter, _ -> (
    let mapping = Kill.mapping t.runner in
    match Kill.netlist t.runner mutant with
    | exception (Lower.Synth_error _ | Mapping.Mapping_error _) -> (Ok Unknown, false)
    | netlist when same_netlist (Mapping.netlist mapping) netlist ->
      let r = Budget.check_deadline (budget_or_ambient budget) ~stage:Rerror.Sat in
      if Result.is_ok r then Metrics.incr c_structural;
      (Result.map (fun () -> Equivalent) r, true)
    | netlist -> (solve ?budget mapping netlist, false))

(* A kept verdict, where returning it matches a fresh decide; [None]
   sends the decide to {!compute}. Off the miter nothing is spent. A
   miter solve spends [Sat_conflicts], so under a finite quota it runs
   again and spends or is cut as before. Under an unlimited quota the
   kept verdict passes the deadline, and the solve-entry chaos point
   unless no solve reached it. *)
let reuse ?budget t (s : Mutant.settled) =
  let verdict =
    match s.Mutant.witness with None -> Equivalent | Some seq -> Distinguished seq
  in
  let budget = budget_or_ambient budget in
  if t.regime <> Miter then Some (Ok verdict)
  else if Budget.remaining budget Budget.Sat_conflicts <> max_int then None
  else
    Some
      (Chaos.contain Rerror.Sat (fun () ->
           if not s.Mutant.structural then Rerror.ok_exn (Chaos.trip Chaos.Sat_solve);
           Rerror.ok_exn (Budget.check_deadline budget ~stage:Rerror.Sat);
           verdict))

(* Only conclusive verdicts are kept: [Unknown] and a cut solve depend
   on budgets, so they are decided again on every call. *)
let slot_of t (r, structural) =
  match r with
  | Ok Equivalent -> Mutant.Settled { Mutant.against = t.design; witness = None; structural }
  | Ok (Distinguished seq) ->
    Mutant.Settled { Mutant.against = t.design; witness = Some seq; structural }
  | Ok Unknown | Error _ -> Mutant.Open

let rec settle ?budget t (m : Mutant.t) =
  match Atomic.get m.Mutant.verdict with
  | Mutant.Settled s when s.Mutant.against == t.design -> (
    match reuse ?budget t s with
    | Some (Ok _ as r) ->
      Metrics.incr c_reused;
      r
    | Some (Error _ as r) -> r
    | None -> fst (compute ?budget t m))
  | Mutant.Settled _ -> fst (compute ?budget t m)
  | Mutant.Deciding lock ->
    (* Another domain is deciding this mutant: wait for it, then look
       again. *)
    Mutex.lock lock;
    Mutex.unlock lock;
    settle ?budget t m
  | Mutant.Open ->
    let lock = Mutex.create () in
    Mutex.lock lock;
    if not (Atomic.compare_and_set m.Mutant.verdict Mutant.Open (Mutant.Deciding lock))
    then begin
      Mutex.unlock lock;
      settle ?budget t m
    end
    else begin
      let slot = ref Mutant.Open in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set m.Mutant.verdict !slot;
          Mutex.unlock lock)
        (fun () ->
          let r = compute ?budget t m in
          slot := slot_of t r;
          fst r)
    end

let decide ?budget t (m : Mutant.t) =
  if not (same_interface t.design m.Mutant.design) then
    invalid_arg "Equivalence.decide: designs have different interfaces";
  let r = settle ?budget t m in
  (match r with Ok Unknown | Error _ -> Metrics.incr c_unknown | Ok _ -> ());
  r
