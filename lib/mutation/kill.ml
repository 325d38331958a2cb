module Sim = Mutsamp_hdl.Sim
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx

(* Observability series (no-ops unless metrics collection is on). *)
let c_sequences = Metrics.counter "kill.sequences"

(* Per-operator kill events, e.g. [kill.killed.AOR]. A mutant counts
   once per sequence that kills it, so re-detections across sequences
   show up — the interesting ratio is against [kill.sequences]. *)
let record_kill (mutants : Mutant.t array) i =
  if Metrics.enabled () then
    Metrics.add_named ("kill.killed." ^ Operator.name mutants.(i).Mutant.op) 1

type t = {
  original : Mutsamp_hdl.Ast.design;
  mutants : Mutant.t array;
  original_sim : Sim.t;
  mutant_sims : Sim.t array;
}

let make original ms =
  {
    original;
    mutants = Array.of_list ms;
    original_sim = Sim.create original;
    mutant_sims = Array.of_list (List.map (fun (m : Mutant.t) -> Sim.create m.design) ms);
  }

let original t = t.original
let mutants t = Array.to_list t.mutants
let size t = Array.length t.mutants

let reference_outputs t seq =
  Sim.reset t.original_sim;
  List.map (Sim.step t.original_sim) seq

(* First cycle where the mutant's outputs diverge from the reference,
   or None. *)
let detection_cycle t reference i seq =
  let sim = t.mutant_sims.(i) in
  Sim.reset sim;
  let rec loop cycle seq reference =
    match seq, reference with
    | [], [] -> None
    | stim :: seq', ref_obs :: reference' ->
      let obs = Sim.step sim stim in
      if Sim.outputs_equal obs ref_obs then loop (cycle + 1) seq' reference'
      else Some cycle
    | _, _ -> invalid_arg "Kill: reference length mismatch"
  in
  loop 0 seq reference

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

(* Sharding: the reference replay uses the shared [original_sim], so
   references are computed on the coordinating domain before any
   fan-out; shard bodies only touch [mutant_sims] at their own disjoint
   candidate indices. Candidate order is preserved — shards take
   contiguous slices and the merge concatenates in slice order — so
   parallel results are bit-identical to sequential ones. *)

let candidate_array t alive =
  match alive with
  | Some l -> Array.of_list l
  | None -> Array.init (Array.length t.mutants) (fun i -> i)

let kills_at t ?alive ?(ctx = Ctx.default) seq =
  let reference = reference_outputs t seq in
  let cand = candidate_array t alive in
  Metrics.incr c_sequences;
  let seq_len = List.length seq in
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
            if !stop <> None then None
            else
              match detection_cycle t reference i seq with
              | Some c ->
                record_kill t.mutants i;
                Some (i, c)
              | None -> None
          end)
        (Array.to_list (Array.sub cand lo len))
    in
    note_degraded !stop;
    out
  in
  List.concat (Array.to_list (Ctx.map_shards ctx ~n:(Array.length cand) ~f:shard))

let killed_set t ?(ctx = Ctx.default) sequences =
  (* Mutant-sharded: every shard walks the whole test set over its own
     slice of the population, dropping killed mutants inside the slice.
     At an effective job count of 1 the single shard is the whole
     population with the undivided budget. *)
  let refs =
    List.map (fun seq -> (seq, List.length seq, reference_outputs t seq)) sequences
  in
  List.iter (fun _ -> Metrics.incr c_sequences) sequences;
  let shard ~budget ~lo ~len =
    let killed = Array.make len false in
    let stop = ref (chaos_entry ()) in
    List.iter
      (fun (seq, seq_len, reference) ->
        if !stop = None then begin
          let i = ref 0 in
          while !stop = None && !i < len do
            if not killed.(!i) then begin
              match Budget.spend budget ~stage:Rerror.Kill Budget.Fsim_pairs seq_len with
              | Error e -> stop := Some e
              | Ok () ->
                if detection_cycle t reference (lo + !i) seq <> None then begin
                  killed.(!i) <- true;
                  record_kill t.mutants (lo + !i)
                end
            end;
            incr i
          done
        end)
      refs;
    note_degraded !stop;
    killed
  in
  Array.concat (Array.to_list (Ctx.map_shards ctx ~n:(Array.length t.mutants) ~f:shard))
