(* Compiled fault-simulation backend, and the compiled netlist both
   backends run.

   A netlist is flattened into a {!Program}: one code word per gate
   over one slot per net. The good machine runs the whole program with
   [Program.step]; each fault site gets a fanout-cone program over the
   same slot layout, which [Program.exec] runs on an overlay array. A
   cone program starts with boundary loads (cone-external slots copied
   from the baseline into the overlay), after which every gate reads
   and writes the overlay only: no forcing checks, no bounds checks in
   the inner loop. Combinational only: sequential netlists run the
   packed backend, over the same compiled netlist.

   The last [keep] netlists compiled are kept and reused while runs
   receive that same netlist value ([==]); any other value, even a
   structurally equal one, is compiled afresh. Cones are kept per seed
   net in write-once slots, filled on the coordinating domain before
   [Ctx.map_shards] fans out; concurrent runs on one netlist race only
   on a slot both would fill with equal cones. Compilation records its
   cost in [exec.compile_ms].

   A sequential netlist's entry instead keeps one verdict slot per
   fault, for the packed backend's untestability proofs ({!verdict}). *)

module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Bitsim = Mutsamp_netlist.Bitsim
module Program = Mutsamp_netlist.Program
module Metrics = Mutsamp_obs.Metrics
module Trace = Mutsamp_obs.Trace
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module K = Fsim_kernel

let fanins2 (g : Gate.t) =
  let f0 = g.Gate.fanins.(0) in
  (f0, if Array.length g.Gate.fanins > 1 then g.Gate.fanins.(1) else f0)

type cone = {
  seed : int;  (* overlay slot the fault forces: its stem, or its faulted gate *)
  loads : int array;  (* cone-external slots, copied from the baseline *)
  code : int array;  (* the cone's other gates, topological *)
  outs : int array;  (* slots of the distinct PO-driving nets in the cone *)
}

type t = {
  nl : Netlist.t;
  layout : Program.layout;
  prog : Program.t;
  (* Both [||] for a sequential netlist: the packed backend reads neither. *)
  fanouts : int array array;  (* per net: consuming gates, ascending *)
  cones : cone option Atomic.t array;  (* per seed net, write-once *)
  verdicts : int Atomic.t array;  (* per fault, sequential only: see [verdict] *)
}

(* A fault's verdict on a sequential netlist, which only moves up:
   [unseen] until a run leaves the fault undetected; then [c >= 0]
   while searches of up to [c] joint states (none yet when 0) have
   settled nothing; at last [testable] or [untestable]. *)
let unseen = -1
let testable = max_int - 1
let untestable = max_int

let keep = 8  (* bounded, so netlists the caller has dropped are let go *)
let recent : t list Atomic.t = Atomic.make []  (* newest first *)
let find nl = List.find_opt (fun e -> e.nl == nl)

(* Two domains compiling one netlist at once publish one entry; the
   later adopts it. *)
let compiled nl =
  match find nl (Atomic.get recent) with
  | Some e -> e
  | None ->
    let e, dt =
      Trace.with_span_timed "fsim_compile"
        ~attrs:[ ("design", nl.Netlist.name) ]
        (fun () ->
          let layout = Program.layout nl and comb = Netlist.num_dffs nl = 0 in
          {
            nl;
            layout;
            prog = Program.of_layout nl layout;
            fanouts = (if comb then Array.map Array.of_list (Netlist.fanouts nl) else [||]);
            cones =
              Array.init (if comb then Array.length nl.Netlist.gates else 0) (fun _ ->
                  Atomic.make None);
            verdicts =
              Array.init (if comb then 0 else 6 * Array.length nl.Netlist.gates) (fun _ ->
                  Atomic.make unseen);
          })
    in
    Metrics.add K.x_compile_ms (int_of_float (dt *. 1000.));
    let rec publish () =
      let old = Atomic.get recent in
      match find nl old with
      | Some e -> e
      | None ->
        let kept = List.filteri (fun i _ -> i < keep - 1) old in
        if Atomic.compare_and_set recent old (e :: kept) then e else publish ()
    in
    publish ()

(* One slot per polarity of each net's stem and each gate's two pins. *)
let verdict e (f : Fault.t) =
  let site =
    match f.Fault.site with
    | Fault.Stem net -> 3 * net
    | Fault.Branch { gate; pin } -> (3 * gate) + 1 + pin
  in
  e.verdicts.((2 * site) + match f.Fault.polarity with Fault.Stuck_at_0 -> 0 | Stuck_at_1 -> 1)

(* Raise [slot] to [v]; a slot already at or above it stays. *)
let rec advance slot v =
  let old = Atomic.get slot in
  if v > old && not (Atomic.compare_and_set slot old v) then advance slot v

(* What a fault forces, in the program's slots. *)
type force =
  | Slot of int  (* a stem: this slot *)
  | Pin of { slot : int; site : int; kind : Gate.kind; a : int; b : int }
      (* a gate's branch pin: recompute the gate's slot from its operand
         slots, the stuck pin's as -1; [site] is the slot feeding the
         pin *)
  | Next of { flop : int; site : int }
      (* a flip-flop's D pin: that flop's next state; [site] is its D
         slot *)

let force e f =
  let slot = e.layout.Program.slot in
  match Fault.injection f with
  | Bitsim.Net net -> Slot slot.(net)
  | Bitsim.Pin { gate; pin } -> (
    let g = e.nl.Netlist.gates.(gate) in
    let site = slot.(g.Gate.fanins.(pin)) in
    match g.Gate.kind with
    | Gate.Dff _ -> Next { flop = slot.(gate) - Array.length e.nl.Netlist.input_nets; site }
    | kind ->
      let f0, f1 = fanins2 g in
      let operand p net = if p = pin then -1 else slot.(net) in
      Pin { slot = slot.(gate); site; kind; a = operand 0 f0; b = operand 1 f1 })

(* The seed is forced, not evaluated: a pin fault's gate reads the
   stuck word on one pin and the baseline on the other, and a seed
   gate's fanins are upstream of its own fanout cone, hence always
   cone-external. *)
let compile_cone e seed =
  let nl = e.nl and slot = e.layout.Program.slot in
  let n = Array.length nl.Netlist.gates in
  let in_cone = Array.make n false in
  let rec visit net =
    Array.iter
      (fun g ->
        if not in_cone.(g) then begin
          in_cone.(g) <- true;
          visit g
        end)
      e.fanouts.(net)
  in
  in_cone.(seed) <- true;
  visit seed;
  let order = e.layout.Program.order in
  let members = ref [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if in_cone.(i) && i <> seed then members := i :: !members
  done;
  (* Cone-external fanins are copied into the overlay up front, so the
     cone code never branches on operand provenance. [taken] marks the
     external nets loaded and the cone nets listed as outputs. *)
  let taken = Array.make n false in
  let take acc net =
    if taken.(net) then acc
    else begin
      taken.(net) <- true;
      slot.(net) :: acc
    end
  in
  let loads =
    List.fold_left
      (fun acc i ->
        let f0, f1 = fanins2 nl.Netlist.gates.(i) in
        let acc = if in_cone.(f0) then acc else take acc f0 in
        if in_cone.(f1) then acc else take acc f1)
      [] !members
  in
  let outs =
    Array.fold_left
      (fun acc (_, net) -> if in_cone.(net) then take acc net else acc)
      [] nl.Netlist.output_list
  in
  {
    seed = slot.(seed);
    loads = Array.of_list loads;
    code = Array.of_list (List.map (Program.encode nl slot) !members);
    outs = Array.of_list (List.rev outs);
  }

let cone e f =
  let seed = match Fault.injection f with Bitsim.Net s -> s | Bitsim.Pin { gate; _ } -> gate in
  match Atomic.get e.cones.(seed) with
  | Some c -> c
  | None ->
    let c = compile_cone e seed in
    Atomic.set e.cones.(seed) (Some c);
    c

(* Runs on the coordinating domain and returns a plain array aligned
   with the fault list, so worker domains read only filled cones. *)
let prepare nl ~faults =
  let e = compiled nl in
  let sites, dt =
    Trace.with_span_timed "fsim_compile_sites"
      ~attrs:[ ("design", nl.Netlist.name) ]
      (fun () -> Array.of_list (List.map (fun f -> (force e f, cone e f)) faults))
  in
  let ms = int_of_float (dt *. 1000.) in
  if ms > 0 then Metrics.add K.x_compile_ms ms;
  (e, sites)

(* Combinational shard over precompiled cone programs: one good-machine
   pass per batch of 63 patterns, then each alive fault's cone. Budget
   is charged per pattern·fault pair offered, and detected faults drop
   out of later batches. *)
let combinational_shard e (sites : (force * cone) array) ~budget
    ~(faults : Fault.t array) ~fault_lo ~patterns =
  let nl = e.nl in
  let w = Bitsim.word_bits in
  let detections =
    Array.map (fun f -> { K.fault = f; detected_at = None }) faults
  in
  let alive = Array.init (Array.length faults) (fun i -> i) in
  let alive_count = ref (Array.length faults) in
  let good = Array.make (Program.words e.prog) 0 in
  let fv = Array.make (Array.length good) 0 in
  let inputs = Array.make (Array.length nl.Netlist.input_nets) 0 in
  let scratch = K.pack_scratch () in
  Program.reset e.prog good;
  let n_pat = Array.length patterns in
  let batches = (n_pat + w - 1) / w in
  let batch = ref 0 in
  let stop = ref (K.chaos_entry ()) in
  let total_comb = Array.length e.layout.Program.order in
  while !batch < batches && !alive_count > 0 && !stop = None do
    let lo = !batch * w in
    let len = min w (n_pat - lo) in
    (match
       Budget.spend budget ~stage:Rerror.Fsim Budget.Fsim_pairs
         (len * !alive_count)
     with
     | Ok () -> ()
     | Error e -> stop := Some e);
    if !stop = None then begin
      K.pack_patterns nl patterns lo len ~scratch inputs;
      Program.step e.prog good inputs 0;
      Metrics.incr K.x_batches;
      Metrics.incr K.x_good_steps;
      Metrics.observe K.h_lanes_per_step (float_of_int len);
      let valid = K.word_lane_mask len in
      let k = ref 0 in
      while !k < !alive_count do
        let fi = alive.(!k) in
        let force, prog = sites.(fault_lo + fi) in
        Metrics.incr K.c_machine_steps;
        let stuck = Fault.stuck_word faults.(fi) in
        let forced, seed_evals =
          match force with
          | Slot _ -> (stuck, 0)
          | Pin { kind; a; b; _ } ->
            ( Gate.eval2 kind
                (if a < 0 then stuck else Array.unsafe_get good a)
                (if b < 0 then stuck else Array.unsafe_get good b),
              1 )
          | Next _ -> assert false
        in
        Array.unsafe_set fv prog.seed forced;
        let diff = ref 0 in
        if Array.unsafe_get good prog.seed <> forced then begin
          let loads = prog.loads in
          for o = 0 to Array.length loads - 1 do
            let s = Array.unsafe_get loads o in
            Array.unsafe_set fv s (Array.unsafe_get good s)
          done;
          Program.exec prog.code fv;
          Metrics.add K.x_events_skipped
            (total_comb - Array.length prog.code - seed_evals);
          let outs = prog.outs in
          for x = 0 to Array.length outs - 1 do
            let s = Array.unsafe_get outs x in
            diff := !diff lor (Array.unsafe_get fv s lxor Array.unsafe_get good s)
          done;
          diff := !diff land valid
        end
        else Metrics.add K.x_events_skipped (total_comb - seed_evals);
        if !diff <> 0 then begin
          detections.(fi) <-
            { detections.(fi) with detected_at = Some (lo + K.lowest_bit !diff) };
          alive_count := !alive_count - 1;
          alive.(!k) <- alive.(!alive_count);
          alive.(!alive_count) <- fi
        end
        else incr k
      done
    end;
    incr batch
  done;
  K.note_cut ~detail:K.batch_cut_detail !stop;
  {
    K.total = Array.length faults;
    detected = Array.length faults - !alive_count;
    detections;
    patterns_applied = n_pat;
  }
