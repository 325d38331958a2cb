module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Topo = Mutsamp_netlist.Topo
module Fault = Mutsamp_fault.Fault
module V = Fivevalued
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos

type result = Test of Mutsamp_fault.Pattern.t | Untestable | Aborted

type stats = { backtracks : int; implications : int }

(* Observability series (no-ops unless metrics collection is on). *)
let c_calls = Metrics.counter "podem.calls"
let c_backtracks = Metrics.counter "podem.backtracks"
let c_implications = Metrics.counter "podem.implications"
let c_tests = Metrics.counter "podem.tests_generated"
let c_untestable = Metrics.counter "podem.untestable"
let c_aborted = Metrics.counter "podem.aborted"
let h_backtracks = Metrics.histogram "podem.backtracks_per_call"

type ctx = {
  nl : Netlist.t;
  topo : Topo.t;
  fanouts : int list array;
  site_net : int;  (* the net whose good value activates the fault *)
  stem_net : int;  (* faulted stem, -1 for a branch fault *)
  pin_gate : int;  (* gate of a faulted branch, -1 for a stem fault *)
  pin_idx : int;
  stuck : V.t;
  values : V.t array;
  pi_value : V.t array;  (* per input position *)
  pi_position : int array;  (* net -> input position, -1 off the inputs *)
  mutable changed : int list;  (* positions assigned since the last imply *)
  (* Implication worklist: one stack per level, stored back to back in
     [queue] from [level_base.(l)], each sized to its level's gate
     count; [pending] keeps a gate on at most one stack. *)
  queue : int array;
  level_base : int array;
  level_top : int array;
  pending : bool array;
  cone : int array;  (* the fault's fanout cone, in topological order *)
  frontier : int array;  (* D-frontier: [frontier.(0 .. n_frontier - 1)] *)
  mutable n_frontier : int;
  is_po : bool array;
  stamp : int array;  (* X-path visit marks, current pass = [epoch] *)
  mutable epoch : int;
  stack : int array;
  scoap : Scoap.t;  (* branching heuristics *)
  guided : bool;  (* use SCOAP guidance (ablation knob) *)
  backtrack_limit : int;
  mutable backtracks : int;
  mutable implications : int;
}

let stuck_value (f : Fault.t) =
  match f.polarity with Fault.Stuck_at_0 -> V.Zero | Fault.Stuck_at_1 -> V.One

(* [v] at the fault site: the faulty-machine projection is overridden
   with the stuck value once the good value is known. *)
let force ctx v =
  match V.good v with
  | V.X -> V.X
  | g -> V.combine g ctx.stuck

(* Value gate [i] actually sees on pin [k]. *)
let operand_value ctx i k =
  let v = ctx.values.(ctx.nl.Netlist.gates.(i).Gate.fanins.(k)) in
  if i = ctx.pin_gate && k = ctx.pin_idx then force ctx v else v

let apply_stem ctx i v = if i = ctx.stem_net then force ctx v else v

let eval_gate ctx i =
  let g = ctx.nl.Netlist.gates.(i) in
  let a = operand_value ctx i 0 in
  let b = if Array.length g.Gate.fanins > 1 then operand_value ctx i 1 else V.X in
  apply_stem ctx i (V.eval g.Gate.kind a b)

let set_pi ctx pos v =
  ctx.pi_value.(pos) <- v;
  ctx.changed <- pos :: ctx.changed

let rec schedule ctx = function
  | [] -> ()
  | g :: rest ->
    if not ctx.pending.(g) then begin
      ctx.pending.(g) <- true;
      let l = ctx.topo.Topo.level.(g) in
      ctx.queue.(ctx.level_top.(l)) <- g;
      ctx.level_top.(l) <- ctx.level_top.(l) + 1
    end;
    schedule ctx rest

let update ctx net v =
  if v != ctx.values.(net) then begin
    ctx.values.(net) <- v;
    schedule ctx ctx.fanouts.(net)
  end

(* Event-driven five-valued implication, with the fault inserted at its
   site: bring [values] to the fixed point of the current PI assignment
   by re-evaluating only the gates downstream of the nets changed since
   the last call, level by level so each gate is evaluated once, after
   all of its changed fanins. The fixed point depends on the assignment
   alone, so every value equals a full-circuit pass. *)
let imply ctx =
  ctx.implications <- ctx.implications + 1;
  List.iter
    (fun pos ->
      let net = ctx.nl.Netlist.input_nets.(pos) in
      update ctx net (apply_stem ctx net ctx.pi_value.(pos)))
    ctx.changed;
  ctx.changed <- [];
  for l = 1 to ctx.topo.Topo.max_level do
    (* A gate's fanouts sit on higher levels: this stack only drains. *)
    while ctx.level_top.(l) > ctx.level_base.(l) do
      let top = ctx.level_top.(l) - 1 in
      ctx.level_top.(l) <- top;
      let g = ctx.queue.(top) in
      ctx.pending.(g) <- false;
      update ctx g (eval_gate ctx g)
    done
  done

let detected ctx =
  Array.exists (fun (_, net) -> V.is_error ctx.values.(net)) ctx.nl.Netlist.output_list

(* Gates whose output is X while some (effective) input carries an
   error. The effective view matters for the branch-faulted gate: the
   error lives on its overridden pin, not on any net. Errors exist only
   inside the fault's fanout cone, so only the cone is scanned. *)
let d_frontier ctx =
  ctx.n_frontier <- 0;
  for k = 0 to Array.length ctx.cone - 1 do
    let i = ctx.cone.(k) in
    if ctx.values.(i) == V.X
       && (V.is_error (operand_value ctx i 0)
           || (Array.length ctx.nl.Netlist.gates.(i).Gate.fanins > 1
               && V.is_error (operand_value ctx i 1)))
    then begin
      ctx.frontier.(ctx.n_frontier) <- i;
      ctx.n_frontier <- ctx.n_frontier + 1
    end
  done

(* Stamp the unvisited sinks and push the X-valued ones; returns the new
   stack height. *)
let rec push_x_sinks ctx sp = function
  | [] -> sp
  | s :: rest ->
    if ctx.stamp.(s) = ctx.epoch then push_x_sinks ctx sp rest
    else begin
      ctx.stamp.(s) <- ctx.epoch;
      if ctx.values.(s) == V.X then begin
        ctx.stack.(sp) <- s;
        push_x_sinks ctx (sp + 1) rest
      end
      else push_x_sinks ctx sp rest
    end

(* Is there a path of X-valued nets from some frontier gate to a PO?
   Every net is stamped before it is pushed, so the stack never holds
   more than one entry per net. *)
let x_path_exists ctx =
  ctx.epoch <- ctx.epoch + 1;
  let sp = ref 0 in
  for k = 0 to ctx.n_frontier - 1 do
    let g = ctx.frontier.(k) in
    if ctx.stamp.(g) <> ctx.epoch then begin
      ctx.stamp.(g) <- ctx.epoch;
      ctx.stack.(!sp) <- g;
      incr sp
    end
  done;
  let found = ref false in
  while (not !found) && !sp > 0 do
    decr sp;
    let i = ctx.stack.(!sp) in
    if ctx.is_po.(i) then found := true
    else sp := push_x_sinks ctx !sp ctx.fanouts.(i)
  done;
  !found

(* Next objective given the site's good value: activate the fault, then
   drive an error through the D-frontier (built by [d_frontier] once
   the fault is active). None = dead end under the current
   assignment. *)
let objective ctx site_good =
  if site_good == V.X then
    (* Activation: drive the site to the complement of the stuck value. *)
    Some (ctx.site_net, ctx.stuck == V.Zero)
  else if site_good == ctx.stuck || ctx.n_frontier = 0 then
    None  (* activation impossible here, or no error left to advance *)
  else begin
    (* Advance the error through the most observable frontier gate
       (first gate when guidance is off). *)
    let g = ref ctx.frontier.(0) in
    if ctx.guided then
      for k = 1 to ctx.n_frontier - 1 do
        let cand = ctx.frontier.(k) in
        if ctx.scoap.Scoap.co.(cand) < ctx.scoap.Scoap.co.(!g) then g := cand
      done;
    let gate = ctx.nl.Netlist.gates.(!g) in
    let v =
      match V.controlling_value gate.Gate.kind with
      | Some c -> not c  (* non-controlling value lets the error pass *)
      | None -> false  (* XOR-ish: any known value propagates *)
    in
    let fanins = gate.Gate.fanins in
    if ctx.values.(fanins.(0)) == V.X then Some (fanins.(0), v)
    else if Array.length fanins > 1 && ctx.values.(fanins.(1)) == V.X then
      Some (fanins.(1), v)
    else None
  end

(* Walk an objective back to an unassigned primary input. *)
let backtrace ctx net v =
  let rec walk net v =
    let pos = ctx.pi_position.(net) in
    if pos >= 0 then (pos, v)
    else
      let g = ctx.nl.Netlist.gates.(net) in
      (match g.Gate.kind with
       | Gate.Const _ | Gate.Pi _ | Gate.Dff _ ->
         (* Const can't be backtraced — caller guards; Pi handled above;
            Dff rejected at entry. *)
         invalid_arg "Podem.backtrace: hit a non-drivable net"
       | Gate.Buf | Gate.Not ->
         walk g.Gate.fanins.(0) (v <> V.inverts g.Gate.kind)
       | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
         (* Among the X inputs, follow the cheapest one to control
            toward the needed value (SCOAP guidance). *)
         let next_value = v <> V.inverts g.Gate.kind in
         let cost f =
           if next_value then ctx.scoap.Scoap.cc1.(f) else ctx.scoap.Scoap.cc0.(f)
         in
         let x_input =
           Array.fold_left
             (fun best f ->
               if ctx.values.(f) <> V.X then best
               else
                 match best with
                 | None -> Some f
                 | Some b ->
                   if ctx.guided && cost f < cost b then Some f else best)
             None g.Gate.fanins
         in
         (match x_input with
          | Some f -> walk f next_value
          | None ->
            (* Output X with all inputs known cannot happen after imply. *)
            invalid_arg "Podem.backtrace: X output with known inputs"))
  in
  walk net v

exception Abort
exception Stop of Rerror.t

(* The gates an error can reach from the fault: the transitive fanout
   of a faulted stem, or a faulted branch's gate and its transitive
   fanout, in topological order. *)
let fanout_cone nl (topo : Topo.t) fanouts ~stem_net ~pin_gate =
  let inside = Array.make (Array.length nl.Netlist.gates) false in
  let rec visit i =
    if not inside.(i) then begin
      inside.(i) <- true;
      List.iter visit fanouts.(i)
    end
  in
  if pin_gate >= 0 then visit pin_gate else List.iter visit fanouts.(stem_net);
  Array.of_list (List.filter (fun i -> inside.(i)) (Array.to_list topo.order))

let generate_core ~backtrack_limit ~guided ~budget nl fault =
  if Netlist.num_dffs nl > 0 then
    invalid_arg "Podem.generate: sequential netlist (apply Scan.full_scan first)";
  let n = Array.length nl.Netlist.gates in
  let pi_position = Array.make n (-1) in
  Array.iteri (fun pos net -> pi_position.(net) <- pos) nl.Netlist.input_nets;
  let stem_net, pin_gate, pin_idx, site_net =
    match fault.Fault.site with
    | Fault.Stem net -> (net, -1, -1, net)
    | Fault.Branch { gate; pin } ->
      (-1, gate, pin, nl.Netlist.gates.(gate).Gate.fanins.(pin))
  in
  let topo = Topo.compute nl in
  let fanouts = Netlist.fanouts nl in
  (* Level [l]'s stack starts after the gates of every lower level. *)
  let level_base = Array.make (topo.Topo.max_level + 2) 0 in
  Array.iter
    (fun i ->
      let l = topo.Topo.level.(i) + 1 in
      level_base.(l) <- level_base.(l) + 1)
    topo.Topo.order;
  for l = 1 to topo.Topo.max_level + 1 do
    level_base.(l) <- level_base.(l) + level_base.(l - 1)
  done;
  let cone = fanout_cone nl topo fanouts ~stem_net ~pin_gate in
  let is_po = Array.make n false in
  Array.iter (fun (_, net) -> is_po.(net) <- true) nl.Netlist.output_list;
  let ctx =
    {
      nl;
      topo;
      fanouts;
      site_net;
      stem_net;
      pin_gate;
      pin_idx;
      stuck = stuck_value fault;
      values = Array.make n V.X;
      pi_value = Array.make (Array.length nl.Netlist.input_nets) V.X;
      pi_position;
      changed = [];
      queue = Array.make (Array.length topo.Topo.order) 0;
      level_base;
      level_top = Array.copy level_base;
      pending = Array.make n false;
      cone;
      frontier = Array.make (Array.length cone) 0;
      n_frontier = 0;
      is_po;
      stamp = Array.make n 0;
      epoch = 0;
      stack = Array.make n 0;
      scoap = Scoap.compute nl;
      guided;
      backtrack_limit;
      backtracks = 0;
      implications = 0;
    }
  in
  (* With every input X only the constants are known: put them in and
     the first imply propagates them, giving the full pass's values. *)
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.kind with
      | Gate.Const v -> update ctx i (apply_stem ctx i (V.of_bool v))
      | Gate.Pi _ | Gate.Dff _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or
      | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor -> ())
    nl.Netlist.gates;
  (* A fault whose site is a constant net can never be activated when
     the constant equals the stuck value, and is trivially activated
     otherwise; imply handles both, no special case needed. *)
  let rec search () =
    imply ctx;
    if detected ctx then true
    else begin
      let site_good = V.good ctx.values.(ctx.site_net) in
      if site_good != V.X && site_good != ctx.stuck then d_frontier ctx;
      match objective ctx site_good with
      | None -> false
      | Some (net, v) ->
        (* Once the fault is active, make sure an X-path remains from
           the D-frontier; prune otherwise. *)
        let viable = site_good == V.X || x_path_exists ctx in
        if not viable then false
        else begin
          match backtrace ctx net v with
          | exception Invalid_argument _ -> false
          | pos, value ->
            set_pi ctx pos (V.of_bool value);
            if search () then true
            else begin
              ctx.backtracks <- ctx.backtracks + 1;
              (* One work unit per backtrack; also polls the deadline. *)
              (match Budget.spend budget ~stage:Rerror.Podem Budget.Podem_backtracks 1 with
               | Ok () -> ()
               | Error e -> raise (Stop e));
              if ctx.backtracks > ctx.backtrack_limit then raise Abort;
              set_pi ctx pos (V.of_bool (not value));
              if search () then true
              else begin
                set_pi ctx pos V.X;
                (* Re-imply so the parent frame sees a consistent
                   assignment. *)
                imply ctx;
                false
              end
            end
        end
    end
  in
  let outcome =
    match search () with
    | true ->
      Test
        (Mutsamp_fault.Pattern.init
           ~inputs:(Array.length ctx.pi_value)
           (fun pos -> ctx.pi_value.(pos) = V.One))
    | false -> Untestable
    | exception Abort -> Aborted
  in
  Metrics.incr c_calls;
  Metrics.add c_backtracks ctx.backtracks;
  Metrics.add c_implications ctx.implications;
  Metrics.observe h_backtracks (float_of_int ctx.backtracks);
  (match outcome with
   | Test _ -> Metrics.incr c_tests
   | Untestable -> Metrics.incr c_untestable
   | Aborted -> Metrics.incr c_aborted);
  (outcome, { backtracks = ctx.backtracks; implications = ctx.implications })

let find_test ?(backtrack_limit = 10_000) ?(guided = true) ?budget nl fault =
  let budget = match budget with Some b -> b | None -> Budget.ambient () in
  Chaos.contain Rerror.Podem (fun () ->
      (match Chaos.trip Chaos.Podem_search with
       | Ok () -> ()
       | Error e -> raise (Rerror.E e));
      match generate_core ~backtrack_limit ~guided ~budget nl fault with
      | exception Stop e -> raise (Rerror.E e)
      | Test p, stats -> (Some p, stats)
      | Untestable, stats -> (None, stats)
      | Aborted, _ ->
        (* Distinct from a redundancy proof: the search ran out of its
           own backtrack limit, so the fault's status is unknown. *)
        raise (Rerror.E (Rerror.Aborted Rerror.Podem)))
