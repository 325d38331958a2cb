module Ast = Mutsamp_hdl.Ast
module Sim = Mutsamp_hdl.Sim
module Stimuli = Mutsamp_hdl.Stimuli
module Check = Mutsamp_hdl.Check
module Netlist = Mutsamp_netlist.Netlist
module Flow = Mutsamp_synth.Flow
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

let require_same_interface a b who =
  if not (same_interface a b) then
    invalid_arg (Printf.sprintf "Equivalence.%s: designs have different interfaces" who)

(* Joint states {!product_bfs} visits before it gives up. *)
let max_pairs = 65536

let product_bfs ?(max_bits = 12) a b =
  require_same_interface a b "product_bfs";
  let bits = Stimuli.input_bits a in
  if bits > max_bits then Unknown
  else begin
    let sim_a = Sim.create a and sim_b = Sim.create b in
    (* A joint state is the two register files; a register-free pair
       has one. *)
    let joint () = (Sim.state sim_a, Sim.state sim_b) in
    let initial = joint () in
    let visited = Hashtbl.create 1024 in
    Hashtbl.replace visited initial ([] : Sim.stimulus list);
    let queue = Queue.create () in
    Queue.push initial queue;
    (* Each code's stimulus, built the first time it is tried, so a
       search that stops early builds only the codes it reached. *)
    let stimuli = Array.make (1 lsl bits) None in
    let stimulus code =
      match stimuli.(code) with
      | Some stim -> stim
      | None ->
        let stim = Stimuli.of_code a code in
        stimuli.(code) <- Some stim;
        stim
    in
    let exception Found of Sim.stimulus list in
    let exception Budget in
    try
      while not (Queue.is_empty queue) do
        let ((state_a, state_b) as state) = Queue.pop queue in
        let path_rev = Hashtbl.find visited state in
        for code = 0 to (1 lsl bits) - 1 do
          let stim = stimulus code in
          Sim.set_state sim_a state_a;
          Sim.set_state sim_b state_b;
          let oa = Sim.step sim_a stim and ob = Sim.step sim_b stim in
          if not (Sim.outputs_equal oa ob) then
            raise (Found (List.rev (stim :: path_rev)));
          let next = joint () in
          if not (Hashtbl.mem visited next) then begin
            if Hashtbl.length visited >= max_pairs then raise Budget;
            Hashtbl.replace visited next (stim :: path_rev);
            Queue.push next queue
          end
        done
      done;
      Equivalent
    with
    | Found seq -> Distinguished seq
    | Budget -> Unknown
  end

(* --- the oracle ---------------------------------------------------------- *)

type regime = Exhaustive | Product | Miter

type t = {
  design : Ast.design;
  regime : regime;
  reference : Mapping.t option;
      (* the miter's reference netlist and its port map; [None] off the
         miter, or when the design fails to synthesize *)
}

(* Mutation rewrites statements, never declarations, so every mutant
   has its design's registers and inputs: the design alone fixes the
   regime. The reference is synthesized here, not on the first miss:
   which decides miss depends on the schedule at [--jobs] > 1, and
   synthesis feeds [analysis.sweep.removed_gates]. *)
let make design =
  let regime =
    if not (Check.is_combinational design) then Product
    else if Stimuli.input_bits design <= 16 then Exhaustive
    else Miter
  in
  let reference =
    if regime <> Miter then None
    else try Some (snd (Flow.synthesize_mapped design)) with Lower.Synth_error _ -> None
  in
  { design; regime; reference }

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

(* A verdict, and whether {!same_netlist} settled it with no solve. *)
let compute ?budget t mutant =
  match t.regime with
  | Exhaustive -> (Ok (product_bfs ~max_bits:16 t.design mutant), false)
  | Product -> (Ok (product_bfs t.design mutant), false)
  | Miter -> (
    match t.reference with
    | None -> (Ok Unknown, false)
    | Some mapping -> (
      match Flow.synthesize mutant with
      | exception Lower.Synth_error _ -> (Ok Unknown, false)
      | netlist when same_netlist (Mapping.netlist mapping) netlist ->
        let r = Budget.check_deadline (budget_or_ambient budget) ~stage:Rerror.Sat in
        if Result.is_ok r then Metrics.incr c_structural;
        (Result.map (fun () -> Equivalent) r, true)
      | netlist -> (solve ?budget mapping netlist, false)))

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
    | None -> fst (compute ?budget t m.Mutant.design))
  | Mutant.Settled _ -> fst (compute ?budget t m.Mutant.design)
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
          let r = compute ?budget t m.Mutant.design in
          slot := slot_of t r;
          fst r)
    end

let decide ?budget t (m : Mutant.t) =
  require_same_interface t.design m.Mutant.design "decide";
  let r = settle ?budget t m in
  (match r with Ok Unknown | Error _ -> Metrics.incr c_unknown | Ok _ -> ());
  r
