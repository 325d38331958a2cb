module Sim = Mutsamp_hdl.Sim
module Ast = Mutsamp_hdl.Ast
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx
module Mapping = Mutsamp_synth.Mapping
module Netlist = Mutsamp_netlist.Netlist
module Program = Mutsamp_netlist.Program

(* Observability series (no-ops unless metrics collection is on). *)
let c_sequences = Metrics.counter "kill.sequences"
let c_compiled = Metrics.counter "kill.compiled"

(* Per-operator kill events, e.g. [kill.killed.AOR]. A mutant counts
   once per sequence that kills it, so re-detections across sequences
   show up — the interesting ratio is against [kill.sequences]. *)
let record_kill (mutants : Mutant.t array) i =
  if Metrics.enabled () then
    Metrics.add_named ("kill.killed." ^ Operator.name mutants.(i).Mutant.op) 1

let lanes = Program.lanes

type t = {
  original : Ast.design;
  mapping : Mapping.t;  (* the original's port map *)
  ports : string array * string array;  (* the original netlist's *)
  mutants : Mutant.t array;
  reference : Program.t;
  programs : Program.t array;
  words : int;  (* scratch words covering every program *)
}

(* Synthesize a mutant. Every design of a runner reads the same packed
   input words and is compared output bit by output bit, so the
   mutant's netlist must have the original netlist's port names, in
   order. *)
let synthesize (design : Ast.design) ports =
  let nl = Mutsamp_synth.Flow.synthesize design in
  if Netlist.port_names nl <> ports then
    raise
      (Mapping.Mapping_error
         (design.Ast.name ^ ": netlist ports are not the original netlist's, in order"));
  nl

(* The mutant's program from its write-once slot, and whether this call
   compiled it. Compilation is serialized, so each mutant is synthesized
   exactly once per process however many domains ask: the counters it
   feeds ([kill.compiled], [analysis.sweep.removed_gates]) then do not
   depend on [--jobs]. Reads of a filled slot take no lock. *)
let compile_lock = Mutex.create ()

let compiled (m : Mutant.t) ports =
  match Atomic.get m.Mutant.program with
  | Some p -> (p, false)
  | None ->
    Mutex.protect compile_lock (fun () ->
        match Atomic.get m.Mutant.program with
        | Some p -> (p, false)
        | None ->
          let p = Program.of_netlist (synthesize m.Mutant.design ports) in
          Atomic.set m.Mutant.program (Some p);
          Metrics.incr c_compiled;
          (p, true))

let make original ms =
  let mutants = Array.of_list ms in
  Trace.with_span "kill.compile" @@ fun () ->
  let nl, mapping = Mutsamp_synth.Flow.synthesize_mapped original in
  let reference = Program.of_netlist nl in
  let ports = Netlist.port_names nl in
  let built = ref 0 in
  let programs =
    Array.map
      (fun (m : Mutant.t) ->
        let p, fresh = compiled m ports in
        if fresh then incr built;
        p)
      mutants
  in
  Trace.add_attr "mutants" (string_of_int (Array.length mutants));
  Trace.add_attr "compiled" (string_of_int !built);
  {
    original;
    mapping;
    ports;
    mutants;
    reference;
    programs;
    words = Array.fold_left (fun m p -> max m (Program.words p)) (Program.words reference) programs;
  }

let original t = t.original
let mapping t = t.mapping
let reference t = t.reference
let program t m = fst (compiled m t.ports)
let netlist t (m : Mutant.t) = synthesize m.Mutant.design t.ports
let size t = Array.length t.mutants

(* --- blocks of sequences, one per lane --------------------------------- *)

type frame = {
  count : int;  (* sequences, one per lane *)
  lengths : int array;  (* per lane, in cycles *)
  running : int array;  (* per cycle: lanes whose sequence is that long *)
  inputs : int array;  (* packed input words, cycle-major *)
  expected : int array;  (* the original's output words, cycle-major *)
}

(* Pack up to [lanes] sequences and replay the original over them. *)
let frame t (seqs : Sim.stimulus list array) =
  let count = Array.length seqs in
  if count > lanes then invalid_arg "Kill: more sequences than lanes";
  let seqs = Array.map Array.of_list seqs in
  let lengths = Array.map Array.length seqs in
  let length = Array.fold_left max 0 lengths in
  let n_in = Program.input_bits t.reference and n_out = Program.output_bits t.reference in
  let running = Array.make length 0 in
  let inputs = Array.make (length * n_in) 0 in
  Array.iteri
    (fun lane seq ->
      Array.iteri
        (fun c stim ->
          running.(c) <- running.(c) lor (1 lsl lane);
          let pos = c * n_in in
          Mapping.set_inputs t.mapping stim (fun k ->
              inputs.(pos + k) <- inputs.(pos + k) lor (1 lsl lane)))
        seq)
    seqs;
  let v = Array.make t.words 0 in
  let expected = Array.make (length * n_out) 0 in
  Program.reset t.reference v;
  for c = 0 to length - 1 do
    Program.step t.reference v inputs (c * n_in);
    Program.outputs t.reference v expected (c * n_out)
  done;
  { count; lengths; running; inputs; expected }

(* Run one mutant over a frame: the lanes whose outputs differ from the
   original's in some cycle. A lane stops counting once its sequence
   ends, and the mutant stops once every running lane has differed.
   With a non-empty [cycles], each lane's first differing cycle goes to
   [cycles.(row + lane)]. *)
let detect (p : Program.t) v f ~cycles ~row =
  let n_in = Program.input_bits p and n_out = Program.output_bits p in
  let length = Array.length f.running in
  Program.reset p v;
  let detected = ref 0 and c = ref 0 in
  while !c < length && f.running.(!c) land lnot !detected <> 0 do
    Program.step p v f.inputs (!c * n_in);
    let fresh =
      Program.mismatch p v f.expected (!c * n_out) land f.running.(!c) land lnot !detected
    in
    if fresh <> 0 then begin
      if Array.length cycles > 0 then
        for lane = 0 to f.count - 1 do
          if fresh land (1 lsl lane) <> 0 then cycles.(row + lane) <- !c
        done;
      detected := !detected lor fresh
    end;
    incr c
  done;
  !detected

type block = {
  frame : frame;
  kills : int array;  (* per mutant: lanes that kill it *)
  cycles : int array;  (* per mutant × lane; empty when no sequence exceeds one cycle *)
}

let candidate_array t alive =
  match alive with
  | Some l -> Array.of_list l
  | None -> Array.init (Array.length t.mutants) (fun i -> i)

let run t ?alive ?(ctx = Ctx.default) seqs =
  let f = frame t seqs in
  let cand = candidate_array t alive in
  let n = Array.length t.mutants in
  let kills = Array.make n 0 in
  let cycles = if Array.length f.running > 1 then Array.make (n * f.count) 0 else [||] in
  (* Shards write disjoint mutant rows, each with its own scratch. *)
  ignore
    (Ctx.map_shards ctx ~n:(Array.length cand) ~f:(fun ~budget:_ ~lo ~len ->
         let v = Array.make t.words 0 in
         for j = lo to lo + len - 1 do
           let i = cand.(j) in
           kills.(i) <- detect t.programs.(i) v f ~cycles ~row:(i * f.count)
         done));
  { frame = f; kills; cycles }

(* --- replay: budget, chaos and counters per sequence -------------------- *)

(* Entry-point chaos consultation; see {!Fsim}. A mutant skipped
   because the budget ran out is reported alive — never killed — so
   degraded mutation scores are conservative. *)
let chaos_entry () =
  match Chaos.fire Chaos.Kill_run with
  | Some Chaos.Timeout -> Some (Rerror.Timeout Rerror.Kill)
  | Some Chaos.Exception ->
    raise (Chaos.Injected "chaos: injected exception at kill")
  | Some (Chaos.Truncate _) | None -> None

let note_degraded = function
  | None -> ()
  | Some e ->
    Degrade.note ~stage:Rerror.Kill
      ~detail:"mutant execution cut short; remaining mutants reported alive" e

(* Sharding: shards take contiguous slices of the candidates and the
   merge concatenates in slice order, so parallel results are
   bit-identical to sequential ones. The budget is spent per checked
   mutant·sequence in candidate order, exactly as a one-sequence-at-a-
   time execution would spend it; the block was already executed, so a
   cut only hides kills, it never changes one. *)
let kills_in t b ?alive ?(ctx = Ctx.default) k =
  if k < 0 || k >= b.frame.count then invalid_arg "Kill.kills_in: no such lane";
  let cand = candidate_array t alive in
  Metrics.incr c_sequences;
  let seq_len = b.frame.lengths.(k) in
  let lane = 1 lsl k in
  let cycle i = if Array.length b.cycles = 0 then 0 else b.cycles.((i * b.frame.count) + k) in
  let shard ~budget ~lo ~len =
    let stop = ref (chaos_entry ()) in
    let out =
      List.filter_map
        (fun i ->
          if !stop <> None then None
          else begin
            (match Budget.spend budget ~stage:Rerror.Kill Budget.Fsim_pairs seq_len with
             | Ok () -> ()
             | Error e -> stop := Some e);
            if !stop <> None || b.kills.(i) land lane = 0 then None
            else begin
              record_kill t.mutants i;
              Some (i, cycle i)
            end
          end)
        (Array.to_list (Array.sub cand lo len))
    in
    note_degraded !stop;
    out
  in
  List.concat (Array.to_list (Ctx.map_shards ctx ~n:(Array.length cand) ~f:shard))

let kills_at t ?alive ?ctx seq = kills_in t (run t ?alive ?ctx [| seq |]) ?alive ?ctx 0

let killed_set t ?(ctx = Ctx.default) sequences =
  (* Mutant-sharded: every shard walks the whole test set, block by
     block, over its own slice of the population, dropping killed
     mutants inside the slice. Frames (packed inputs and the original's
     outputs) are built up front on the coordinating domain. At an
     effective job count of 1 the single shard is the whole population
     with the undivided budget. *)
  let seqs = Array.of_list sequences in
  let frames =
    List.init
      ((Array.length seqs + lanes - 1) / lanes)
      (fun b -> frame t (Array.sub seqs (b * lanes) (min lanes (Array.length seqs - (b * lanes)))))
  in
  Array.iter (fun _ -> Metrics.incr c_sequences) seqs;
  let shard ~budget ~lo ~len =
    let killed = Array.make len false in
    let kills = Array.make len 0 in
    let v = Array.make t.words 0 in
    let stop = ref (chaos_entry ()) in
    List.iter
      (fun f ->
        if !stop = None then begin
          for i = 0 to len - 1 do
            kills.(i) <-
              (if killed.(i) then 0
               else detect t.programs.(lo + i) v f ~cycles:[||] ~row:0)
          done;
          (* Replay sequence-major, as a one-sequence-at-a-time pass. *)
          for k = 0 to f.count - 1 do
            if !stop = None then begin
              let i = ref 0 in
              while !stop = None && !i < len do
                if not killed.(!i) then begin
                  match
                    Budget.spend budget ~stage:Rerror.Kill Budget.Fsim_pairs f.lengths.(k)
                  with
                  | Error e -> stop := Some e
                  | Ok () ->
                    if kills.(!i) land (1 lsl k) <> 0 then begin
                      killed.(!i) <- true;
                      record_kill t.mutants (lo + !i)
                    end
                end;
                incr i
              done
            end
          done
        end)
      frames;
    note_degraded !stop;
    killed
  in
  Array.concat (Array.to_list (Ctx.map_shards ctx ~n:(Array.length t.mutants) ~f:shard))
