module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Gate = Mutsamp_netlist.Gate
module Program = Mutsamp_netlist.Program
module Product = Mutsamp_netlist.Product
module Metrics = Mutsamp_obs.Metrics
module Trace = Mutsamp_obs.Trace
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Ctx = Mutsamp_exec.Ctx
module K = Fsim_kernel
module C = Fsim_compiled

type detection = K.detection = { fault : Fault.t; detected_at : int option }

type report = K.report = {
  total : int;
  detected : int;
  detections : detection array;
  patterns_applied : int;
}

let coverage_percent r =
  if r.total = 0 then 0. else 100. *. float_of_int r.detected /. float_of_int r.total

let coverage_at r n =
  if r.total = 0 then 0.
  else begin
    let hit = ref 0 in
    Array.iter
      (fun d -> match d.detected_at with Some k when k < n -> incr hit | _ -> ())
      r.detections;
    100. *. float_of_int !hit /. float_of_int r.total
  end

let coverage_curve r =
  (* Counting sort over first-detection indices gives the whole curve in
     one pass. *)
  let hits = Array.make (r.patterns_applied + 1) 0 in
  Array.iter
    (fun d ->
      match d.detected_at with
      | Some k when k < r.patterns_applied -> hits.(k + 1) <- hits.(k + 1) + 1
      | Some _ | None -> ())
    r.detections;
  let acc = ref 0 in
  List.init (r.patterns_applied + 1) (fun n ->
      acc := !acc + hits.(n);
      let cov =
        if r.total = 0 then 0. else 100. *. float_of_int !acc /. float_of_int r.total
      in
      (n, cov))

let length_to_reach r target =
  let rec scan = function
    | [] -> None
    | (n, cov) :: rest -> if cov >= target -. 1e-9 then Some n else scan rest
  in
  scan (coverage_curve r)

(* Per-fault first-detection indices are independent of which other
   faults share a run (dropping only skips that fault's own later
   passes; parallel-fault lanes carry independent state), so every
   backend shards its fault array into contiguous chunks and the merge
   is a plain concatenation in chunk order — bit-identical to the
   sequential report. One shard returns its report unchanged. *)
let merge_reports ~patterns_applied shards =
  if Array.length shards = 1 then shards.(0)
  else begin
    Metrics.add K.c_shards (Array.length shards);
    {
      total = Array.fold_left (fun a r -> a + r.K.total) 0 shards;
      detected = Array.fold_left (fun a r -> a + r.K.detected) 0 shards;
      detections =
        Array.concat (Array.to_list (Array.map (fun r -> r.K.detections) shards));
      patterns_applied;
    }
  end

(* Serial single-lane engine, kept as the reference implementation the
   differential property tests compare the word-parallel backends
   against. *)
let serial_shard ~budget ~tick nl ~(faults : Fault.t array) ~sequence =
  let detections = Array.map (fun f -> { fault = f; detected_at = None }) faults in
  let stop = ref (K.chaos_entry ()) in
  let sim_good = Bitsim.create nl in
  Bitsim.reset sim_good;
  let good_outputs =
    Array.map (fun p -> Bitsim.step sim_good (K.replicate_pattern nl p)) sequence
  in
  (* Every shard re-simulates the good circuit, so this scales with the
     shard count — execution bookkeeping, not logical workload. *)
  Metrics.add K.x_good_steps (Array.length sequence);
  let sim_faulty = Bitsim.create nl in
  Array.iteri
    (fun fi f ->
      if !stop = None then begin
      (match
         Budget.spend budget ~stage:Rerror.Fsim Budget.Fsim_pairs
           (Array.length sequence)
       with
       | Ok () -> ()
       | Error e -> stop := Some e)
      end;
      if !stop <> None then tick ()
      else begin
      Bitsim.reset sim_faulty;
      let inj = Fault.injection f and stuck = Fault.stuck_word f in
      (* A stem fault on a flip-flop output also corrupts the reset
         state, which [step_injected] applies from the first cycle. *)
      let rec cycle c =
        if c < Array.length sequence then begin
          let faulty =
            Bitsim.step_injected sim_faulty (K.replicate_pattern nl sequence.(c)) ~inj ~stuck
          in
          Metrics.incr K.c_machine_steps;
          if faulty <> good_outputs.(c) then
            detections.(fi) <- { fault = f; detected_at = Some c }
          else cycle (c + 1)
        end
      in
      cycle 0;
      tick ()
      end)
    faults;
  K.note_cut ~detail:K.serial_cut_detail !stop;
  {
    total = Array.length faults;
    detected = K.count_detected detections;
    detections;
    patterns_applied = Array.length sequence;
  }

(* [w] with lane [bit] taken from [x]. *)
let set_lane w bit x = (w land lnot bit) lor (x land bit)

(* Packed sequential engine after PROOFS (Niermann, Cheng & Patel, IEEE
   TCAD 1992). The good machine runs once per cycle, every lane alike. A
   fault keeps its own flip-flop state only while that state differs
   from the good one; otherwise it implicitly carries the good state.
   Each cycle only the active faults — diverged, or excited because the
   site's good value differs from the stuck value — are packed 63 to a
   word: an inactive fault provably produces the good outputs and the
   good next state. A word runs the netlist's program gate by gate
   range, stopping where each lane's fault is forced: sources before
   the first gate, a gate's stem or pin right after that gate, a D pin
   on the next state. Detected faults drop out and the survivors
   regroup every cycle, so a fault's [detected_at] never depends on
   which faults share its word. Faults marked in [dropped] are proven
   untestable: they are never simulated and stay undetected. *)
let parallel_fault_shard ~budget ~tick (e : C.t) ~(faults : Fault.t array) ~dropped ~sequence =
  let nl = e.C.nl and prog = e.C.prog in
  let n_faults = Array.length faults in
  let detections = Array.map (fun f -> { fault = f; detected_at = None }) faults in
  let stop = ref (K.chaos_entry ()) in
  let w = Bitsim.word_bits in
  let n_cycles = Array.length sequence in
  let kept = Array.of_list (List.filter (fun fi -> not dropped.(fi)) (List.init n_faults Fun.id)) in
  let n_kept = Array.length kept in
  (* Admission: one charge per group of [w] kept faults for the whole
     sequence, up front and in fault order, so a budget cut admits a
     prefix of whole groups whatever the activity turns out to be. *)
  let admitted = ref 0 in
  let cut = ref None in
  while !stop = None && !cut = None && !admitted < n_kept do
    let len = min w (n_kept - !admitted) in
    match Budget.spend budget ~stage:Rerror.Fsim Budget.Fsim_pairs (len * n_cycles) with
    | Ok () ->
      Metrics.incr K.x_fault_groups;
      admitted := !admitted + len
    | Error e -> cut := Some e
  done;
  let slot = e.C.layout.Program.slot in
  let n_in = Program.input_bits prog and n_gates = Program.gates prog in
  let dslot =
    Array.map (fun q -> slot.(nl.Netlist.gates.(q).Gate.fanins.(0))) nl.Netlist.dff_nets
  in
  let n_dff = Array.length dslot in
  (* Per slot: one past its gate's position in the code, so 0 for the
     sources. *)
  let after = Array.make (Array.length slot) 0 in
  Array.iteri (fun k net -> after.(slot.(net)) <- k + 1) e.C.layout.Program.order;
  let stuck = Array.map Fault.stuck_word faults in
  let force = Array.map (C.force e) faults in
  (* Per fault: the slot whose good value decides excitation (the stem
     itself, or the fanin feeding the faulted pin), and where in the
     code it is forced. D pins go last, after every gate. *)
  let site =
    Array.map (function C.Slot s -> s | C.Pin { site; _ } | C.Next { site; _ } -> site) force
  in
  let at =
    Array.map
      (function C.Slot s | C.Pin { slot = s; _ } -> after.(s) | C.Next _ -> n_gates + 1)
      force
  in
  (* Per-fault flip-flop state (one 0/1 int per flip-flop), held only
     while it differs from the good state; [||] follows the good one. *)
  let fstate = Array.make n_faults [||] in
  (* Alive faults in code order of their forcing, so every word's lanes
     arrive in the order the gate loop reaches them. *)
  let alive = Array.sub kept 0 !admitted in
  Array.stable_sort (fun i j -> compare at.(i) at.(j)) alive;
  let n_alive = ref !admitted in
  let active = Array.make !admitted 0 in
  let good = Array.make (Program.words prog) 0 in
  Program.reset prog good;
  let v = Array.make (Program.words prog) 0 in
  let gout = Array.make (Program.output_bits prog) 0 in
  let next = Array.make n_dff 0 in
  let logical_steps = ref 0 in
  let ticked = ref 0 in
  let cycle = ref 0 in
  while !cycle < n_cycles && !n_alive > 0 && !stop = None do
    (match Budget.check_deadline budget ~stage:Rerror.Fsim with
     | Ok () -> ()
     | Error e -> stop := Some e);
    if !stop = None then begin
      let c = !cycle in
      let inputs = K.replicate_pattern nl sequence.(c) in
      Program.step prog good inputs 0;
      Program.outputs prog good gout 0;
      logical_steps := !logical_steps + !n_alive;
      let n_active = ref 0 in
      for k = 0 to !n_alive - 1 do
        let fi = alive.(k) in
        if Array.length fstate.(fi) > 0 || (good.(site.(fi)) lxor stuck.(fi)) land 1 <> 0
        then begin
          active.(!n_active) <- fi;
          incr n_active
        end
      done;
      let n_detected = ref 0 in
      let lo = ref 0 in
      while !lo < !n_active do
        let len = min w (!n_active - !lo) in
        (* Constants, the inputs, and every lane's flip-flop state. *)
        Program.reset prog v;
        Array.blit inputs 0 v 0 n_in;
        Array.blit good n_in v n_in n_dff;
        for l = 0 to len - 1 do
          let fs = fstate.(active.(!lo + l)) in
          if Array.length fs > 0 then
            for k = 0 to n_dff - 1 do
              v.(n_in + k) <- set_lane v.(n_in + k) (1 lsl l) (-fs.(k))
            done
        done;
        let ran = ref 0 and l = ref 0 in
        while !l < len && at.(active.(!lo + !l)) <= n_gates do
          let fi = active.(!lo + !l) in
          if at.(fi) > !ran then begin
            Program.exec_range prog !ran at.(fi) v;
            ran := at.(fi)
          end;
          (match force.(fi) with
           | C.Slot s -> v.(s) <- set_lane v.(s) (1 lsl !l) stuck.(fi)
           | C.Pin { slot = s; kind; a; b; _ } ->
             let operand x = if x < 0 then stuck.(fi) else v.(x) in
             v.(s) <- set_lane v.(s) (1 lsl !l) (Gate.eval2 kind (operand a) (operand b))
           | C.Next _ -> assert false);
          incr l
        done;
        Program.exec_range prog !ran n_gates v;
        for k = 0 to n_dff - 1 do
          next.(k) <- v.(dslot.(k))
        done;
        for l = !l to len - 1 do
          let fi = active.(!lo + l) in
          match force.(fi) with
          | C.Next { flop = k; _ } -> next.(k) <- set_lane next.(k) (1 lsl l) stuck.(fi)
          | C.Slot _ | C.Pin _ -> assert false
        done;
        Metrics.incr K.x_machine_steps;
        Metrics.observe K.h_lanes_per_step (float_of_int len);
        (* Lanes whose outputs, or next state, left the good machine. *)
        let diff = Program.mismatch prog v gout 0 in
        let diverged = ref 0 in
        for k = 0 to n_dff - 1 do
          diverged := !diverged lor (next.(k) lxor good.(dslot.(k)))
        done;
        for l = 0 to len - 1 do
          let fi = active.(!lo + l) in
          if (diff lsr l) land 1 = 1 then begin
            detections.(fi) <- { detections.(fi) with detected_at = Some c };
            fstate.(fi) <- [||];
            incr n_detected
          end
          else if (!diverged lsr l) land 1 = 1 then begin
            let fs =
              if Array.length fstate.(fi) > 0 then fstate.(fi)
              else begin
                let a = Array.make n_dff 0 in
                fstate.(fi) <- a;
                a
              end
            in
            for k = 0 to n_dff - 1 do
              fs.(k) <- (next.(k) lsr l) land 1
            done
          end
          else fstate.(fi) <- [||]
        done;
        lo := !lo + len
      done;
      if !n_detected > 0 then begin
        let kept = ref 0 in
        for k = 0 to !n_alive - 1 do
          let fi = alive.(k) in
          if detections.(fi).detected_at = None then begin
            alive.(!kept) <- fi;
            incr kept
          end
        done;
        n_alive := !kept;
        ticked := !ticked + !n_detected;
        tick !n_detected
      end;
      incr cycle
    end
  done;
  (* Logical work as the serial reference counts it: every alive fault
     through its detection cycle, or to the end of the sequence, which
     is where a dropped fault would have run. *)
  let n_dropped = n_faults - n_kept in
  Metrics.add K.c_machine_steps
    (!logical_steps + (n_dropped * if !stop = None then n_cycles else !cycle));
  Metrics.add K.x_good_steps !cycle;
  if !ticked < n_faults then tick (n_faults - !ticked);
  K.note_cut ~detail:K.parallel_cut_detail (if !stop = None then !cut else !stop);
  {
    total = n_faults;
    detected = K.count_detected detections;
    detections;
    patterns_applied = n_cycles;
  }

(* Untestability proofs for the packed backend. A fault is untestable
   when no input sequence from reset tells the faulty netlist
   ({!Inject.apply}) from the good one: {!Product.search} over the two
   programs, every input code of a cycle in the lanes, finds them
   [Equal]. A run proves only faults an earlier run on the same
   compiled netlist left undetected, so a one-shot run proves nothing.
   Each search may reach [cycles / 2^input_bits] joint states, so it
   tries at most as many state and code pairs as the run has cycles;
   there is no search below 1, and one that hits its cap is tried again
   only under a larger one. Returns, per fault, whether it is proven
   untestable. *)
let prove (e : C.t) (faults : Fault.t array) ~cycles =
  let bits = Program.input_bits e.C.prog in
  let cap = if bits >= Sys.int_size - 2 then 0 else cycles lsr bits in
  let state f = Atomic.get (C.verdict e f) in
  let pending = List.filter (fun f -> let v = state f in v >= 0 && v < cap) (Array.to_list faults) in
  if pending <> [] then
    Trace.with_span "fsim_prove" (fun () ->
        let inputs =
          Product.inputs ~codes:(1 lsl bits) ~width:bits (fun code set ->
              for k = 0 to bits - 1 do
                if (code lsr k) land 1 = 1 then set k
              done)
        in
        List.iter
          (fun f ->
            (* A fault listed twice is searched once per cap. *)
            if state f < cap then begin
              let faulty = Program.of_netlist (Inject.apply e.C.nl f) in
              let outcome, states = Product.search ~max_states:cap inputs e.C.prog faulty in
              Metrics.incr K.x_proofs;
              Metrics.add K.x_proof_states states;
              C.advance (C.verdict e f)
                (match outcome with
                 | Product.Equal -> C.untestable
                 | Product.Differs _ -> C.testable
                 | Product.Exhausted -> cap)
            end)
          pending);
  let dropped = Array.map (fun f -> state f = C.untestable) faults in
  Metrics.add K.x_dropped (Array.fold_left (fun n d -> if d then n + 1 else n) 0 dropped);
  dropped

(* Shared by [run] and [serial]: the run and backend counters, one
   progress ticker fed by every shard (so the callback sees the count
   strictly increasing whatever the interleaving), and the shard merge. *)
let simulate ~ctx ~backend ~faults ~sequence shard =
  let faults = Array.of_list faults in
  let total = Array.length faults in
  Metrics.incr K.c_runs;
  Metrics.incr backend;
  let tick = Ctx.ticker ctx ~stage:"faultsim" ~total in
  let shards =
    Ctx.map_shards ctx ~n:total ~f:(fun ~budget ~lo ~len ->
        shard ~budget ~tick ~lo ~faults:(Array.sub faults lo len))
  in
  let report = merge_reports ~patterns_applied:(Array.length sequence) shards in
  Metrics.add K.c_patterns report.patterns_applied;
  Metrics.add K.c_detected report.detected;
  report

(* The one entry point. [sequence] is a pattern sequence for sequential
   circuits and an (order-preserved) set of independent patterns for
   combinational ones; [detected_at] indexes into it either way. Each
   regime has one backend: compiled without flip-flops, packed with,
   both over {!Fsim_compiled.compiled}. Compilation happens here, on
   the coordinating domain, before any shard runs. *)
let run ?(ctx = Ctx.default) nl ~faults ~sequence =
  if Netlist.num_dffs nl = 0 then begin
    let e, sites = C.prepare nl ~faults in
    simulate ~ctx ~backend:K.c_engine_compiled ~faults ~sequence
      (fun ~budget ~tick:_ ~lo ~faults ->
        C.combinational_shard e sites ~budget ~faults ~fault_lo:lo ~patterns:sequence)
  end
  else begin
    let e = C.compiled nl in
    let dropped = prove e (Array.of_list faults) ~cycles:(Array.length sequence) in
    let r =
      simulate ~ctx ~backend:K.c_engine_packed ~faults ~sequence
        (fun ~budget ~tick ~lo ~faults ->
          let dropped = Array.sub dropped lo (Array.length faults) in
          parallel_fault_shard ~budget ~tick e ~faults ~dropped ~sequence)
    in
    (* What this run left undetected, a later run tries to prove. *)
    Array.iter
      (fun d -> if d.detected_at = None then C.advance (C.verdict e d.fault) 0)
      r.detections;
    r
  end

let serial ?(ctx = Ctx.default) nl ~faults ~sequence =
  simulate ~ctx ~backend:K.c_engine_serial ~faults ~sequence
    (fun ~budget ~tick ~lo:_ ~faults ->
      serial_shard ~budget ~tick:(fun () -> tick 1) nl ~faults ~sequence)
