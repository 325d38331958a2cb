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

(* The netlist as the search reads it, flattened once per netlist. Per
   gate: kind, offset of its row in {!Fivevalued.table} ([-1] for
   sources), fanins ([-1] when absent) and level; per net: fanouts in
   CSR form ([fo.(fo_start.(i) .. fo_start.(i + 1) - 1)], in gate
   order), PO flag and input position ([-1] off the inputs). *)
type prepared = {
  nl : Netlist.t;
  kind : Gate.kind array;
  row : int array;
  fanin0 : int array;
  fanin1 : int array;
  fo_start : int array;
  fo : int array;
  order : int array;  (* combinational gates, topological order *)
  level : int array;
  (* Level [l]'s stack in a search's worklist starts after the gates of
     every lower level. *)
  level_base : int array;
  is_po : bool array;
  pi_position : int array;
  scoap : Scoap.t;  (* branching heuristics *)
}

let prepare (nl : Netlist.t) =
  if Netlist.num_dffs nl > 0 then
    invalid_arg "Podem.prepare: sequential netlist (apply Scan.full_scan first)";
  let n = Array.length nl.gates in
  let kind = Array.map (fun (g : Gate.t) -> g.kind) nl.gates in
  let row =
    Array.map
      (fun k ->
        match k with
        | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> -1
        | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
        | Gate.Xnor -> 25 * V.row k)
      kind
  in
  let fanin k =
    Array.map (fun (g : Gate.t) -> if Array.length g.fanins > k then g.fanins.(k) else -1) nl.gates
  in
  let fanouts = Netlist.fanouts nl in
  let fo_start = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> fo_start.(i + 1) <- fo_start.(i) + List.length l) fanouts;
  let topo = Topo.compute nl in
  let level_base = Array.make (topo.Topo.max_level + 2) 0 in
  Array.iter
    (fun i ->
      let l = topo.Topo.level.(i) + 1 in
      level_base.(l) <- level_base.(l) + 1)
    topo.Topo.order;
  for l = 1 to topo.Topo.max_level + 1 do
    level_base.(l) <- level_base.(l) + level_base.(l - 1)
  done;
  let is_po = Array.make n false in
  Array.iter (fun (_, net) -> is_po.(net) <- true) nl.output_list;
  let pi_position = Array.make n (-1) in
  Array.iteri (fun pos net -> pi_position.(net) <- pos) nl.input_nets;
  {
    nl;
    kind;
    row;
    fanin0 = fanin 0;
    fanin1 = fanin 1;
    fo_start;
    fo = Array.of_list (List.concat (Array.to_list fanouts));
    order = topo.Topo.order;
    level = topo.Topo.level;
    level_base;
    is_po;
    pi_position;
    scoap = Scoap.compute nl;
  }

(* One search's state; [p] is shared and never written. *)
type ctx = {
  p : prepared;
  site_net : int;  (* the net whose good value activates the fault *)
  stem_net : int;  (* faulted stem, -1 for a branch fault *)
  pin_gate : int;  (* gate of a faulted branch, -1 for a stem fault *)
  pin_idx : int;
  stuck : V.t;
  values : V.t array;
  pi_value : V.t array;  (* per input position *)
  mutable changed : int list;  (* positions assigned since the last imply *)
  (* Implication worklist: one stack per level, stored back to back in
     [queue] from [p.level_base.(l)], each sized to its level's gate
     count; [pending] keeps a gate on at most one stack, and only the
     levels [lo .. hi] hold gates. *)
  queue : int array;
  level_top : int array;
  pending : bool array;
  mutable lo : int;
  mutable hi : int;
  cone : int array;  (* the fault's fanout cone, in topological order *)
  frontier : int array;  (* D-frontier: [frontier.(0 .. n_frontier - 1)] *)
  mutable n_frontier : int;
  stamp : int array;  (* X-path visit marks, current pass = [epoch] *)
  mutable epoch : int;
  stack : int array;
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
let[@inline] operand_value ctx i k =
  let v = ctx.values.(if k = 0 then ctx.p.fanin0.(i) else ctx.p.fanin1.(i)) in
  if i = ctx.pin_gate && k = ctx.pin_idx then force ctx v else v

let[@inline] apply_stem ctx i v = if i = ctx.stem_net then force ctx v else v

let[@inline] eval_gate ctx i =
  let b = if ctx.p.fanin1.(i) >= 0 then operand_value ctx i 1 else V.X in
  apply_stem ctx i V.table.(ctx.p.row.(i) + (5 * V.index (operand_value ctx i 0)) + V.index b)

let set_pi ctx pos v =
  ctx.pi_value.(pos) <- v;
  ctx.changed <- pos :: ctx.changed

let[@inline] schedule ctx g =
  if not ctx.pending.(g) then begin
    ctx.pending.(g) <- true;
    let l = ctx.p.level.(g) in
    ctx.queue.(ctx.level_top.(l)) <- g;
    ctx.level_top.(l) <- ctx.level_top.(l) + 1;
    if l < ctx.lo then ctx.lo <- l;
    if l > ctx.hi then ctx.hi <- l
  end

let[@inline] update ctx net v =
  if v != ctx.values.(net) then begin
    ctx.values.(net) <- v;
    for k = ctx.p.fo_start.(net) to ctx.p.fo_start.(net + 1) - 1 do
      schedule ctx ctx.p.fo.(k)
    done
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
      let net = ctx.p.nl.Netlist.input_nets.(pos) in
      update ctx net (apply_stem ctx net ctx.pi_value.(pos)))
    ctx.changed;
  ctx.changed <- [];
  (* A gate's fanouts sit on higher levels: each stack only drains, and
     [hi] only grows while the levels below it are drained. *)
  let l = ref ctx.lo in
  while !l <= ctx.hi do
    let base = ctx.p.level_base.(!l) in
    while ctx.level_top.(!l) > base do
      let top = ctx.level_top.(!l) - 1 in
      ctx.level_top.(!l) <- top;
      let g = ctx.queue.(top) in
      ctx.pending.(g) <- false;
      update ctx g (eval_gate ctx g)
    done;
    incr l
  done;
  ctx.lo <- max_int;
  ctx.hi <- 0

(* [Fivevalued.is_error], which the frontier scan calls for every cone
   gate at every step: a call into another module is never inlined
   here. *)
let[@inline] is_error v = v == V.D || v == V.Dbar

let detected ctx =
  Array.exists (fun (_, net) -> V.is_error ctx.values.(net)) ctx.p.nl.Netlist.output_list

(* Gates whose output is X while some (effective) input carries an
   error. The effective view matters for the branch-faulted gate: the
   error lives on its overridden pin, not on any net. Errors exist only
   inside the fault's fanout cone, so only the cone is scanned. *)
let d_frontier ctx =
  ctx.n_frontier <- 0;
  for k = 0 to Array.length ctx.cone - 1 do
    let i = ctx.cone.(k) in
    if ctx.values.(i) == V.X
       && (is_error (operand_value ctx i 0)
           || (ctx.p.fanin1.(i) >= 0 && is_error (operand_value ctx i 1)))
    then begin
      ctx.frontier.(ctx.n_frontier) <- i;
      ctx.n_frontier <- ctx.n_frontier + 1
    end
  done

(* Is there a path of X-valued nets from some frontier gate to a PO?
   Every net is stamped before it is pushed, so the stack never holds
   more than one entry per net. *)
let x_path_exists ctx =
  ctx.epoch <- ctx.epoch + 1;
  let sp = ref 0 in
  let visit s =
    if ctx.stamp.(s) <> ctx.epoch then begin
      ctx.stamp.(s) <- ctx.epoch;
      ctx.stack.(!sp) <- s;
      incr sp
    end
  in
  for k = 0 to ctx.n_frontier - 1 do
    visit ctx.frontier.(k)
  done;
  let found = ref false in
  while (not !found) && !sp > 0 do
    decr sp;
    let i = ctx.stack.(!sp) in
    if ctx.p.is_po.(i) then found := true
    else
      for k = ctx.p.fo_start.(i) to ctx.p.fo_start.(i + 1) - 1 do
        let s = ctx.p.fo.(k) in
        (* Stamp every sink, push only the X-valued ones. *)
        if ctx.values.(s) == V.X then visit s else ctx.stamp.(s) <- ctx.epoch
      done
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
    let co = ctx.p.scoap.Scoap.co in
    let g = ref ctx.frontier.(0) in
    if ctx.guided then
      for k = 1 to ctx.n_frontier - 1 do
        let cand = ctx.frontier.(k) in
        if co.(cand) < co.(!g) then g := cand
      done;
    let v =
      match V.controlling_value ctx.p.kind.(!g) with
      | Some c -> not c  (* non-controlling value lets the error pass *)
      | None -> false  (* XOR-ish: any known value propagates *)
    in
    let a = ctx.p.fanin0.(!g) and b = ctx.p.fanin1.(!g) in
    if ctx.values.(a) == V.X then Some (a, v)
    else if b >= 0 && ctx.values.(b) == V.X then Some (b, v)
    else None
  end

(* Walk an objective back to an unassigned primary input. *)
let backtrace ctx net v =
  let p = ctx.p in
  let rec walk net v =
    let pos = p.pi_position.(net) in
    if pos >= 0 then (pos, v)
    else
      let kind = p.kind.(net) in
      match kind with
      | Gate.Const _ | Gate.Pi _ | Gate.Dff _ ->
        (* Const can't be backtraced — caller guards; Pi handled above;
           Dff rejected at entry. *)
        invalid_arg "Podem.backtrace: hit a non-drivable net"
      | Gate.Buf | Gate.Not -> walk p.fanin0.(net) (v <> V.inverts kind)
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        (* Among the X inputs, follow the cheapest one to control
           toward the needed value (SCOAP guidance); the first one on a
           tie or when guidance is off. *)
        let next_value = v <> V.inverts kind in
        let cost = if next_value then p.scoap.Scoap.cc1 else p.scoap.Scoap.cc0 in
        let a = p.fanin0.(net) and b = p.fanin1.(net) in
        if ctx.values.(a) == V.X then
          walk
            (if ctx.guided && ctx.values.(b) == V.X && cost.(b) < cost.(a) then b else a)
            next_value
        else if ctx.values.(b) == V.X then walk b next_value
        else
          (* Output X with all inputs known cannot happen after imply. *)
          invalid_arg "Podem.backtrace: X output with known inputs"
  in
  walk net v

exception Abort
exception Stop of Rerror.t

(* The gates an error can reach from the fault: the transitive fanout
   of a faulted stem, or a faulted branch's gate and its transitive
   fanout, in topological order. *)
let fanout_cone p ~stem_net ~pin_gate =
  let inside = Array.make (Array.length p.kind) false in
  let rec visit i =
    if not inside.(i) then begin
      inside.(i) <- true;
      visit_fanouts i
    end
  and visit_fanouts i =
    for k = p.fo_start.(i) to p.fo_start.(i + 1) - 1 do
      visit p.fo.(k)
    done
  in
  if pin_gate >= 0 then visit pin_gate else visit_fanouts stem_net;
  Array.of_list (List.filter (fun i -> inside.(i)) (Array.to_list p.order))

let generate_core ~backtrack_limit ~guided ~budget p fault =
  let n = Array.length p.kind in
  let stem_net, pin_gate, pin_idx, site_net =
    match fault.Fault.site with
    | Fault.Stem net -> (net, -1, -1, net)
    | Fault.Branch { gate; pin } ->
      (-1, gate, pin, if pin = 0 then p.fanin0.(gate) else p.fanin1.(gate))
  in
  let cone = fanout_cone p ~stem_net ~pin_gate in
  let ctx =
    {
      p;
      site_net;
      stem_net;
      pin_gate;
      pin_idx;
      stuck = stuck_value fault;
      values = Array.make n V.X;
      pi_value = Array.make (Array.length p.nl.Netlist.input_nets) V.X;
      changed = [];
      queue = Array.make (Array.length p.order) 0;
      level_top = Array.copy p.level_base;
      pending = Array.make n false;
      lo = max_int;
      hi = 0;
      cone;
      frontier = Array.make (Array.length cone) 0;
      n_frontier = 0;
      stamp = Array.make n 0;
      epoch = 0;
      stack = Array.make n 0;
      guided;
      backtrack_limit;
      backtracks = 0;
      implications = 0;
    }
  in
  (* With every input X only the constants are known: put them in and
     the first imply propagates them, giving the full pass's values. *)
  Array.iteri
    (fun i (k : Gate.kind) ->
      match k with
      | Const v -> update ctx i (apply_stem ctx i (V.of_bool v))
      | Pi _ | Dff _ | Buf | Not | And | Or | Nand | Nor | Xor | Xnor -> ())
    p.kind;
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

let find_test ?(backtrack_limit = 10_000) ?(guided = true) ?budget prepared fault =
  let budget = match budget with Some b -> b | None -> Budget.ambient () in
  Chaos.contain Rerror.Podem (fun () ->
      (match Chaos.trip Chaos.Podem_search with
       | Ok () -> ()
       | Error e -> raise (Rerror.E e));
      match generate_core ~backtrack_limit ~guided ~budget prepared fault with
      | exception Stop e -> raise (Rerror.E e)
      | Test p, stats -> (Some p, stats)
      | Untestable, stats -> (None, stats)
      | Aborted, _ ->
        (* Distinct from a redundancy proof: the search ran out of its
           own backtrack limit, so the fault's status is unknown. *)
        raise (Rerror.E (Rerror.Aborted Rerror.Podem)))
