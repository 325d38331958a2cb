module Ast = Mutsamp_hdl.Ast
module Check = Mutsamp_hdl.Check
module Stimuli = Mutsamp_hdl.Stimuli
module Prng = Mutsamp_util.Prng
module Netlist = Mutsamp_netlist.Netlist
module Bitsim = Mutsamp_netlist.Bitsim
module Mapping = Mutsamp_synth.Mapping
module Flow = Mutsamp_synth.Flow
module Fault = Mutsamp_fault.Fault
module Collapse = Mutsamp_fault.Collapse
module Fsim = Mutsamp_fault.Fsim
module Mutant = Mutsamp_mutation.Mutant
module Generate = Mutsamp_mutation.Generate
module Kill = Mutsamp_mutation.Kill
module Equivalence = Mutsamp_mutation.Equivalence
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Degrade = Mutsamp_robust.Degrade
module Ctx = Mutsamp_exec.Ctx

(* Observability series (no-ops unless metrics collection is on). *)
let c_equiv_screened = Metrics.counter "equiv.screened_out"
let c_equiv_exact = Metrics.counter "equiv.exact_checks"
let c_equiv_proven = Metrics.counter "equiv.proven_equivalent"

type t = {
  design : Ast.design;
  netlist : Netlist.t;
  mapping : Mapping.t;
  faults : Fault.t list;
  mutants : Mutant.t list;
  sequential : bool;
  hashes : Cache.hashes Lazy.t;
}

(* Campaign cells force the hashes from worker domains, and a
   concurrent [Lazy.force] raises [CamlinternalLazy.Undefined] in OCaml
   5, so every force happens under a lock ([Lazy.is_val] is no guard: it
   already reads true while another domain is still forcing). Storeless
   runs never force them at all. *)
let hashes_lock = Mutex.create ()
let hashes t = Mutex.protect hashes_lock (fun () -> Lazy.force t.hashes)

let prepare design =
  Trace.with_span "prepare" ~attrs:[ ("design", design.Ast.name) ] @@ fun () ->
  let netlist, mapping =
    Trace.with_span "synth" (fun () -> Flow.synthesize_mapped design)
  in
  let collapse = Trace.with_span "collapse" (fun () -> Collapse.run netlist) in
  let mutants = Trace.with_span "mutants" (fun () -> Generate.all design) in
  (* Structural run-report series: netlist shape and fault-collapse
     effectiveness, keyed by circuit so multi-circuit commands stay
     readable. No-ops unless metrics collection is on. *)
  if Metrics.enabled () then begin
    let s = Mutsamp_netlist.Stats.compute netlist in
    let named suffix v =
      Metrics.add_named ("analysis." ^ design.Ast.name ^ "." ^ suffix) v
    in
    named "nets" s.Mutsamp_netlist.Stats.nets;
    named "logic_gates" s.Mutsamp_netlist.Stats.logic_gates;
    named "flip_flops" s.Mutsamp_netlist.Stats.flip_flops;
    named "levels" s.Mutsamp_netlist.Stats.levels;
    named "max_fanout" s.Mutsamp_netlist.Stats.max_fanout;
    named "regions" s.Mutsamp_netlist.Stats.regions;
    named "max_region" s.Mutsamp_netlist.Stats.max_region;
    named "reconvergences" s.Mutsamp_netlist.Stats.reconvergences;
    named "faults_full" collapse.Collapse.full_size;
    named "faults_collapsed" collapse.Collapse.collapsed_size;
    named "collapse_ratio_bp"
      (int_of_float (Float.round (10000. *. Collapse.ratio collapse)))
  end;
  Trace.add_attr "gates" (string_of_int (Array.length netlist.Netlist.gates));
  Trace.add_attr "faults"
    (string_of_int (List.length collapse.Collapse.representatives));
  Trace.add_attr "mutants" (string_of_int (List.length mutants));
  let faults = collapse.Collapse.representatives in
  {
    design;
    netlist;
    mapping;
    faults;
    mutants;
    sequential = not (Check.is_combinational design);
    hashes =
      lazy
        {
          Cache.design_h = Cache.design_hash design;
          netlist_h = Cache.netlist_hash netlist;
          faults_h = Cache.faults_hash faults;
        };
  }

let pattern_of_stimulus t stimulus =
  let p = Mutsamp_fault.Pattern.zero ~inputs:(Mutsamp_fault.Pattern.num_inputs t.netlist) in
  Mapping.set_inputs t.mapping stimulus (fun k -> Mutsamp_fault.Pattern.set p k true);
  p

let patterns_of_sequences t sequences =
  Array.of_list (List.map (pattern_of_stimulus t) (List.concat sequences))

let fault_simulate ?(ctx = Ctx.default) t sequence =
  Trace.with_span "fsim" @@ fun () ->
  (* Degraded runs are returned but never cached — see
     {!Mutsamp_store.Store.fetch_or_compute}. *)
  let r =
    Mutsamp_store.Store.fetch_or_compute (Ctx.store ctx) ~ns:"fsim"
      ~parts:(fun () ->
        let h = hashes t in
        [
          ("netlist", h.Cache.netlist_h);
          ("faults", h.Cache.faults_h);
          ("sequence", Cache.sequence_hash sequence);
        ])
      ~encode:Cache.fsim_report_to_json
      ~decode:(Cache.fsim_report_of_json ~faults:t.faults)
      (fun () -> Fsim.run ~ctx t.netlist ~faults:t.faults ~sequence)
  in
  Trace.add_attr "patterns" (string_of_int r.Fsim.patterns_applied);
  Trace.add_attr "detected"
    (Printf.sprintf "%d/%d" r.Fsim.detected r.Fsim.total);
  r

let scan_patterns_of_sequences t sequences =
  if not t.sequential then patterns_of_sequences t sequences
  else begin
    let sim = Bitsim.create t.netlist in
    Bitsim.reset sim;
    let n_in = Array.length t.netlist.Netlist.input_nets in
    let n_dffs = Array.length t.netlist.Netlist.dff_nets in
    let patterns = ref [] in
    List.iter
      (fun stim ->
        let state = Bitsim.dff_states sim in
        let pi = pattern_of_stimulus t stim in
        (* Scan pattern layout matches Scan.full_scan: original inputs
           first, then the flip-flops in dff_nets order. *)
        let p =
          Mutsamp_fault.Pattern.init ~inputs:(n_in + n_dffs) (fun k ->
              if k < n_in then Mutsamp_fault.Pattern.get pi k
              else state.(k - n_in) land 1 = 1)
        in
        patterns := p :: !patterns;
        ignore (Bitsim.step sim (Mapping.pack_stimulus t.mapping stim)))
      (List.concat sequences);
    Array.of_list (List.rev !patterns)
  end

let rec classify_equivalents ?(screen = 512) ?(ctx = Ctx.default) ~seed t =
  Trace.with_span "equiv" @@ fun () ->
  (* The design hash pins the mutant population (mutants are enumerated
     from the source), so the index list stays valid. *)
  Mutsamp_store.Store.fetch_or_compute (Ctx.store ctx) ~ns:"equiv"
    ~parts:(fun () ->
      [
        ("design", (hashes t).Cache.design_h);
        ("seed", string_of_int seed);
        ("screen", string_of_int screen);
      ])
    ~encode:Cache.int_list_to_json ~decode:Cache.int_list_of_json
    (fun () -> classify_equivalents_compute ~screen ~ctx ~seed t)

and classify_equivalents_compute ~screen ~ctx ~seed t =
  let mutants = Array.of_list t.mutants in
  let runner = Kill.make t.design t.mutants in
  let prng = Prng.create seed in
  (* Phase 1: random screening kills the easy mutants cheaply. *)
  let seq_len = if t.sequential then 16 else 1 in
  let n_seqs = max 1 (screen / seq_len) in
  let sequences =
    List.init n_seqs (fun _ -> Stimuli.random_sequence prng t.design seq_len)
  in
  let flags = Kill.killed_set runner ~ctx sequences in
  let survivors =
    List.filter (fun i -> not flags.(i)) (List.init (Array.length mutants) Fun.id)
  in
  Metrics.add c_equiv_screened (Array.length mutants - List.length survivors);
  Trace.add_attr "survivors" (string_of_int (List.length survivors));
  (* Phase 2: exact checks on the survivors, sharded over the context
     pool (each check is independent; the verdict array merges in
     survivor order, so parallel results match sequential ones). Budget
     exhaustion degrades to "non-equivalent" for the unresolved mutants
     — a conservative answer that deflates MS rather than inflating it —
     and the cut is recorded once. *)
  let survivor_arr = Array.of_list survivors in
  let oracle = Equivalence.make runner in
  let total = Array.length survivor_arr in
  let tick = Ctx.ticker ctx ~stage:"equiv" ~total in
  let noted = Atomic.make false in
  let note_stop e =
    if not (Atomic.exchange noted true) then
      Degrade.note ~stage:Rerror.Equivalence
        ~detail:"equivalence classification cut short; unresolved mutants treated non-equivalent"
        e
  in
  (* Survivors treated as non-equivalent without a proof: an [Unknown]
     verdict or a budget cut. *)
  let undecided_series = "equiv." ^ t.design.Ast.name ^ ".undecided" in
  let shard ~budget ~lo ~len =
    let stopped = ref None in
    let stop e =
      if !stopped = None then stopped := Some e;
      note_stop e
    in
    let undecided = ref 0 in
    let unproven () = incr undecided; false in
    let exact i =
      Metrics.incr c_equiv_exact;
      match Equivalence.decide ~budget oracle mutants.(i) with
      | Ok Equivalence.Equivalent -> true
      | Ok (Equivalence.Distinguished _) -> false
      | Ok Equivalence.Unknown -> unproven ()
      | Error e -> stop e; unproven ()
    in
    let out = Array.make len false in
    for k = 0 to len - 1 do
      out.(k) <-
        (if !stopped <> None then unproven ()
         else
           match Budget.check_deadline budget ~stage:Rerror.Equivalence with
           | Error e -> stop e; unproven ()
           | Ok () -> exact survivor_arr.(lo + k));
      tick 1
    done;
    Metrics.add_named undecided_series !undecided;
    out
  in
  let verdicts = Array.concat (Array.to_list (Ctx.map_shards ctx ~n:total ~f:shard)) in
  let equivalents = List.filteri (fun k _ -> verdicts.(k)) survivors in
  Metrics.add c_equiv_proven (List.length equivalents);
  equivalents
