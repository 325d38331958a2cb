(* Compiled fault-simulation backend.

   At load time a netlist is flattened into a {!Program}: one code word
   per gate over one slot per net. The good machine runs the whole
   program with [Program.step]; each fault site gets a fanout-cone
   program over the same slot layout, which [Program.exec] runs on an
   overlay array. A cone program starts with boundary loads
   (cone-external slots copied from the baseline into the overlay),
   after which every gate reads and writes the overlay only: no
   forcing checks, no bounds checks in the inner loop. Combinational
   only: sequential netlists run the packed backend.

   Programs are cached per structural design hash in a process-global
   table; all compilation happens on the coordinating domain before
   [Ctx.map_shards] fans out, so the shared structures are immutable by
   the time worker domains read them. Cache misses record their cost
   in [exec.compile_ms]. *)

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

type cone_prog = {
  seed : int;  (* overlay slot the fault forces: its stem, or its faulted gate *)
  pin : (Gate.kind * int * int) option;
      (* pin fault: the faulted gate's kind and operand slots, the stuck
         pin's as -1 *)
  loads : int array;  (* cone-external slots, copied from the baseline *)
  code : int array;  (* the cone's other gates, topological *)
  outs : int array;  (* slots of the distinct PO-driving nets in the cone *)
}

type entry = {
  nl : Netlist.t;
  layout : Program.layout;
  fanouts : int array array;  (* per net: consuming gates, ascending *)
  good : Program.t;
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
  let order = entry.layout.Program.order in
  let members = ref [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if in_cone.(i) && i <> seed then members := i :: !members
  done;
  (in_cone, !members)

let compile_cone entry (f : Fault.t) =
  let nl = entry.nl and slot = entry.layout.Program.slot in
  let seed, pin =
    match Fault.injection f with
    | Bitsim.Net s -> (s, None)
    | Bitsim.Pin { gate; pin } ->
      (* The faulted gate reads the stuck word on one pin and the
         baseline on the other: a seed gate's fanins are upstream of its
         own fanout cone, hence always cone-external. *)
      let g = nl.Netlist.gates.(gate) in
      let f0, f1 = fanins2 g in
      let operand p net = if p = pin then -1 else slot.(net) in
      (gate, Some (g.Gate.kind, operand 0 f0, operand 1 f1))
  in
  let in_cone, members = cone_of entry seed in
  (* Cone-external fanins are copied into the overlay up front, so the
     cone code never branches on operand provenance. *)
  let boundary = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let f0, f1 = fanins2 nl.Netlist.gates.(i) in
      if not in_cone.(f0) then Hashtbl.replace boundary slot.(f0) ();
      if not in_cone.(f1) then Hashtbl.replace boundary slot.(f1) ())
    members;
  let seen = Hashtbl.create 8 in
  let outs =
    List.filter_map
      (fun (_, net) ->
        if in_cone.(net) && not (Hashtbl.mem seen net) then begin
          Hashtbl.replace seen net ();
          Some slot.(net)
        end
        else None)
      (Array.to_list nl.Netlist.output_list)
  in
  {
    seed = slot.(seed);
    pin;
    loads = Array.of_seq (Hashtbl.to_seq_keys boundary);
    code = Array.of_list (List.map (Program.encode nl slot) members);
    outs = Array.of_list outs;
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
          let layout = Program.layout nl in
          {
            nl;
            layout;
            fanouts = Array.map Array.of_list (Netlist.fanouts nl);
            good = Program.of_layout nl layout;
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
  let detections =
    Array.map (fun f -> { K.fault = f; detected_at = None }) faults
  in
  let alive = Array.init (Array.length faults) (fun i -> i) in
  let alive_count = ref (Array.length faults) in
  let good = Array.make (Program.words entry.good) 0 in
  let fv = Array.make (Array.length good) 0 in
  let inputs = Array.make (Array.length nl.Netlist.input_nets) 0 in
  let scratch = K.pack_scratch () in
  Program.reset entry.good good;
  let n_pat = Array.length patterns in
  let batches = (n_pat + w - 1) / w in
  let batch = ref 0 in
  let stop = ref (K.chaos_entry ()) in
  let total_comb = Array.length entry.layout.Program.order in
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
      Program.step entry.good good inputs 0;
      Metrics.incr K.x_batches;
      Metrics.incr K.x_good_steps;
      Metrics.observe K.h_lanes_per_step (float_of_int len);
      let valid = K.word_lane_mask len in
      let k = ref 0 in
      while !k < !alive_count do
        let fi = alive.(!k) in
        let prog = progs.(fault_lo + fi) in
        Metrics.incr K.c_machine_steps;
        let stuck = Fault.stuck_word faults.(fi) in
        let forced, seed_evals =
          match prog.pin with
          | None -> (stuck, 0)
          | Some (kind, x, y) ->
            ( Gate.eval2 kind
                (if x < 0 then stuck else Array.unsafe_get good x)
                (if y < 0 then stuck else Array.unsafe_get good y),
              1 )
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
