(* Compiled fault-simulation backend.

   At load time a netlist is specialised into straight-line OCaml
   closures over dense word arrays: one whole-netlist good program,
   plus one fanout-cone program per fault site. A cone program starts
   with boundary loads (cone-external fanins copied from the baseline
   into the overlay), after which every gate op reads and writes the
   overlay only — no forcing checks, no kind dispatch, no bounds
   checks in the inner loop. Combinational only: sequential netlists
   run the packed backend.

   Programs are cached per structural design hash in a process-global
   table; all compilation happens on the coordinating domain before
   [Ctx.map_shards] fans out, so the shared structures are immutable by
   the time worker domains read them. Cache misses record their cost
   in [exec.compile_ms]. *)

module Netlist = Mutsamp_netlist.Netlist
module Gate = Mutsamp_netlist.Gate
module Bitsim = Mutsamp_netlist.Bitsim
module Topo = Mutsamp_netlist.Topo
module Metrics = Mutsamp_obs.Metrics
module Trace = Mutsamp_obs.Trace
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module K = Fsim_kernel

(* Every op takes (aux, v) and writes one net's word into [v]. Gate
   ops read [v] only; source ops read [aux] — the packed input words
   for the good/sequential programs, the good baseline for a cone
   program's boundary loads. Indices are validated at compile time, so
   bodies use unsafe accesses. *)
type op = int array -> int array -> unit

let compile_gate ~i ~kind ~f0 ~f1 : op =
  let open Gate in
  match kind with
  | Buf -> fun _ v -> Array.unsafe_set v i (Array.unsafe_get v f0)
  | Not -> fun _ v -> Array.unsafe_set v i (lnot (Array.unsafe_get v f0))
  | And ->
    fun _ v ->
      Array.unsafe_set v i (Array.unsafe_get v f0 land Array.unsafe_get v f1)
  | Or ->
    fun _ v ->
      Array.unsafe_set v i (Array.unsafe_get v f0 lor Array.unsafe_get v f1)
  | Nand ->
    fun _ v ->
      Array.unsafe_set v i
        (lnot (Array.unsafe_get v f0 land Array.unsafe_get v f1))
  | Nor ->
    fun _ v ->
      Array.unsafe_set v i
        (lnot (Array.unsafe_get v f0 lor Array.unsafe_get v f1))
  | Xor ->
    fun _ v ->
      Array.unsafe_set v i (Array.unsafe_get v f0 lxor Array.unsafe_get v f1)
  | Xnor ->
    fun _ v ->
      Array.unsafe_set v i
        (lnot (Array.unsafe_get v f0 lxor Array.unsafe_get v f1))
  | Pi _ | Const _ | Dff _ -> invalid_arg "Fsim_compiled.compile_gate"

let copy_op net : op = fun g v -> Array.unsafe_set v net (Array.unsafe_get g net)
let pi_op k net : op = fun w v -> Array.unsafe_set v net (Array.unsafe_get w k)

let fanins2 (g : Gate.t) =
  let f0 = g.Gate.fanins.(0) in
  (f0, if Array.length g.Gate.fanins > 1 then g.Gate.fanins.(1) else f0)

type cone_prog = {
  excite : int array -> int array -> bool;
      (* [excite good fv] seeds the overlay; false = fault provably
         quiescent for this batch, so the cone is skipped wholesale *)
  ops : op array;  (* boundary loads then cone gates, topological *)
  out_nets : int array;  (* distinct PO-driving nets inside the cone *)
  evals_excited : int;  (* gate evaluations when the cone runs *)
  evals_quiescent : int;  (* gate evaluations when it is skipped *)
}

type entry = {
  nl : Netlist.t;
  order : int array;  (* combinational gates, topological *)
  fanouts : int array array;  (* per net: consuming gates, ascending *)
  good_ops : op array;
  const_fill : (int * int) array;  (* net, word: pre-set once per shard *)
  cones : (Fault.t, cone_prog) Hashtbl.t;
}

let cache : (int, entry) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

(* Cheap structural hash; a hit is verified against the stored netlist
   before reuse, so collisions cost a recompile, never a wrong result. *)
let design_hash (nl : Netlist.t) =
  let h = ref (Hashtbl.hash (Array.length nl.Netlist.gates)) in
  let mix v = h := (!h * 31) lxor Hashtbl.hash v in
  Array.iter
    (fun (g : Gate.t) ->
      mix (Gate.kind_name g.Gate.kind);
      Array.iter mix g.Gate.fanins)
    nl.Netlist.gates;
  Array.iter mix nl.Netlist.input_nets;
  Array.iter
    (fun (name, net) ->
      mix name;
      mix net)
    nl.Netlist.output_list;
  !h

let compile_good (nl : Netlist.t) order =
  let pis =
    Array.to_list (Array.mapi pi_op nl.Netlist.input_nets)
  in
  let gates =
    Array.to_list
      (Array.map
         (fun i ->
           let g = nl.Netlist.gates.(i) in
           let f0, f1 = fanins2 g in
           compile_gate ~i ~kind:g.Gate.kind ~f0 ~f1)
         order)
  in
  Array.of_list (pis @ gates)

let const_fill (nl : Netlist.t) =
  let acc = ref [] in
  Array.iteri
    (fun i (g : Gate.t) ->
      match g.Gate.kind with
      | Gate.Const v -> acc := (i, if v then Bitsim.all_ones else 0) :: !acc
      | _ -> ())
    nl.Netlist.gates;
  Array.of_list (List.rev !acc)

(* Forward cone of a fault site: membership mask plus member gates in
   topological order. *)
let cone_of entry seed =
  let n = Array.length entry.nl.Netlist.gates in
  let in_cone = Array.make n false in
  let rec visit net =
    Array.iter
      (fun g ->
        if not in_cone.(g) then begin
          in_cone.(g) <- true;
          visit g
        end)
      entry.fanouts.(net)
  in
  in_cone.(seed) <- true;
  visit seed;
  let members = ref [] in
  for k = Array.length entry.order - 1 downto 0 do
    let i = entry.order.(k) in
    if in_cone.(i) then members := i :: !members
  done;
  (in_cone, !members)

let compile_cone entry (f : Fault.t) =
  let nl = entry.nl in
  let stuck = Fault.stuck_word f in
  let in_cone, members, excite, seed_net, seed_evals =
    match Fault.injection f with
    | Bitsim.Net s ->
      let in_cone, members = cone_of entry s in
      let excite good fv =
        Array.unsafe_set fv s stuck;
        Array.unsafe_get good s <> stuck
      in
      (in_cone, members, excite, s, 0)
    | Bitsim.Pin { gate; pin } ->
      let in_cone, members = cone_of entry gate in
      let g = nl.Netlist.gates.(gate) in
      let kind = g.Gate.kind and f0, f1 = fanins2 g in
      (* The faulted gate: one pin reads the stuck word, the other the
         baseline directly (a seed gate's fanins are upstream of its own
         fanout cone, hence always cone-external). *)
      let excite good fv =
        let x = if pin = 0 then stuck else Array.unsafe_get good f0 in
        let y = if pin = 1 then stuck else Array.unsafe_get good f1 in
        let w = Gate.eval2 kind x y in
        Array.unsafe_set fv gate w;
        Array.unsafe_get good gate <> w
      in
      (in_cone, members, excite, gate, 1)
  in
  (* Cone-external fanins are copied into the overlay up front, so gate
     ops never branch on operand provenance. *)
  let boundary = Hashtbl.create 16 in
  let gate_ops =
    List.filter_map
      (fun i ->
        if i = seed_net then None
        else begin
          let g = nl.Netlist.gates.(i) in
          let f0, f1 = fanins2 g in
          if not in_cone.(f0) then Hashtbl.replace boundary f0 ();
          if not in_cone.(f1) then Hashtbl.replace boundary f1 ();
          Some (compile_gate ~i ~kind:g.Gate.kind ~f0 ~f1)
        end)
      members
  in
  let loads =
    Hashtbl.fold (fun net () acc -> copy_op net :: acc) boundary []
  in
  let seen = Hashtbl.create 8 in
  let out_nets =
    Array.of_list
      (List.filter_map
         (fun (_, net) ->
           if in_cone.(net) && not (Hashtbl.mem seen net) then begin
             Hashtbl.replace seen net ();
             Some net
           end
           else None)
         (Array.to_list nl.Netlist.output_list))
  in
  let n_gate_ops = List.length gate_ops in
  {
    excite;
    ops = Array.of_list (loads @ gate_ops);
    out_nets;
    evals_excited = n_gate_ops + seed_evals;
    evals_quiescent = seed_evals;
  }

let find_or_compile nl =
  let h = design_hash nl in
  match Hashtbl.find_opt cache h with
  | Some e when e.nl == nl || e.nl = nl -> e
  | Some _ | None ->
    let e, dt =
      Trace.with_span_timed "fsim_compile"
        ~attrs:[ ("design", nl.Netlist.name) ]
        (fun () ->
          let order = (Topo.compute nl).Topo.order in
          {
            nl;
            order;
            fanouts = Array.map Array.of_list (Netlist.fanouts nl);
            good_ops = compile_good nl order;
            const_fill = const_fill nl;
            cones = Hashtbl.create 64;
          })
    in
    Metrics.add K.x_compile_ms (int_of_float (dt *. 1000.));
    Hashtbl.replace cache h e;
    e

(* Runs on the coordinating domain, under one lock, and returns a plain
   array aligned with the fault list — worker domains never touch the
   cache. Cone programs accumulate in the entry across runs, so a warm
   design costs lookups only. *)
let prepare_comb nl ~faults =
  Mutex.protect cache_mutex (fun () ->
      let entry = find_or_compile nl in
      let progs, dt =
        Trace.with_span_timed "fsim_compile_sites"
          ~attrs:[ ("design", nl.Netlist.name) ]
          (fun () ->
            Array.of_list
              (List.map
                 (fun f ->
                   match Hashtbl.find_opt entry.cones f with
                   | Some p -> p
                   | None ->
                     let p = compile_cone entry f in
                     Hashtbl.replace entry.cones f p;
                     p)
                 faults))
      in
      let ms = int_of_float (dt *. 1000.) in
      if ms > 0 then Metrics.add K.x_compile_ms ms;
      (entry, progs))

(* Combinational shard over precompiled cone programs: one good-machine
   pass per batch of 63 patterns, then each alive fault's cone. Budget
   is charged per pattern·fault pair offered, and detected faults drop
   out of later batches. *)
let combinational_shard entry (progs : cone_prog array) ~budget
    ~(faults : Fault.t array) ~fault_lo ~patterns =
  let nl = entry.nl in
  let w = Bitsim.word_bits in
  let n = Array.length nl.Netlist.gates in
  let detections =
    Array.map (fun f -> { K.fault = f; detected_at = None }) faults
  in
  let alive = Array.init (Array.length faults) (fun i -> i) in
  let alive_count = ref (Array.length faults) in
  let good = Array.make n 0 in
  let fv = Array.make n 0 in
  Array.iter (fun (i, word) -> good.(i) <- word) entry.const_fill;
  let n_pat = Array.length patterns in
  let batches = (n_pat + w - 1) / w in
  let batch = ref 0 in
  let stop = ref (K.chaos_entry ()) in
  let total_comb = Array.length entry.order in
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
      let words = K.pack_patterns nl patterns lo len in
      let gops = entry.good_ops in
      for o = 0 to Array.length gops - 1 do
        (Array.unsafe_get gops o) words good
      done;
      Metrics.incr K.x_batches;
      Metrics.incr K.x_good_steps;
      Metrics.observe K.h_lanes_per_step (float_of_int len);
      let valid = K.word_lane_mask len in
      let k = ref 0 in
      while !k < !alive_count do
        let fi = alive.(!k) in
        let prog = progs.(fault_lo + fi) in
        Metrics.incr K.c_machine_steps;
        let diff = ref 0 in
        if prog.excite good fv then begin
          let ops = prog.ops in
          for o = 0 to Array.length ops - 1 do
            (Array.unsafe_get ops o) good fv
          done;
          Metrics.add K.x_events_skipped (total_comb - prog.evals_excited);
          let out_nets = prog.out_nets in
          for x = 0 to Array.length out_nets - 1 do
            let net = Array.unsafe_get out_nets x in
            diff := !diff lor (Array.unsafe_get fv net lxor Array.unsafe_get good net)
          done;
          diff := !diff land valid
        end
        else Metrics.add K.x_events_skipped (total_comb - prog.evals_quiescent);
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
