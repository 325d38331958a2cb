(* Differential suite for the fault-sim backends: [Fsim.run] — compiled
   on combinational netlists, packed on sequential ones — must
   reproduce the [Fsim.serial] reference bit-for-bit — same detection
   flags AND the same first-detection indices — over random netlists,
   over the whole circuit registry, and at every shard fan-out. The
   netlist [Program] that mutant execution and the compiled backend
   run is checked against [Bitsim] directly, and the compiled
   backend's pattern packing and the uniform pattern stream against
   their per-bit and rejection-loop references. *)

module Prng = Mutsamp_util.Prng
module Packvec = Mutsamp_util.Packvec
module Netlist = Mutsamp_netlist.Netlist
module B = Netlist.Builder
module Gate = Mutsamp_netlist.Gate
module Bitsim = Mutsamp_netlist.Bitsim
module Program = Mutsamp_netlist.Program
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Registry = Mutsamp_circuits.Registry
module Prpg = Mutsamp_atpg.Prpg
module Ctx = Mutsamp_exec.Ctx
module Pool = Mutsamp_exec.Pool
module Metrics = Mutsamp_obs.Metrics
module Rerror = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Degrade = Mutsamp_robust.Degrade
module Collapse = Mutsamp_fault.Collapse
module Flow = Mutsamp_synth.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Same shape as the generator in test_wide.ml: a few inputs, a pile of
   random gates, optional flip-flops, random outputs. Constant nets join
   the pool after the gates (which would fold them away), so outputs
   and D inputs can be tied to them. *)
let random_netlist ~dffs seed =
  let prng = Prng.create seed in
  let b = B.create (Printf.sprintf "eng%d" seed) in
  let n_inputs = 2 + Prng.int prng 4 in
  let pool =
    ref (List.init n_inputs (fun k -> B.input b (Printf.sprintf "i%d" k)))
  in
  let qs =
    if not dffs then []
    else
      List.init
        (1 + Prng.int prng 2)
        (fun _ ->
          let q = B.dff b ~init:(Prng.bool prng) in
          pool := q :: !pool;
          q)
  in
  let pick () = Prng.pick_list prng !pool in
  for _ = 1 to 5 + Prng.int prng 15 do
    let x = pick () and y = pick () in
    let g =
      match Prng.int prng 7 with
      | 0 -> B.and_ b x y
      | 1 -> B.or_ b x y
      | 2 -> B.xor_ b x y
      | 3 -> B.nand_ b x y
      | 4 -> B.nor_ b x y
      | 5 -> B.xnor_ b x y
      | _ -> B.not_ b x
    in
    pool := g :: !pool
  done;
  if Prng.bool prng then pool := B.const b false :: !pool;
  if Prng.bool prng then pool := B.const b true :: !pool;
  List.iter (fun q -> B.connect_dff b q ~d:(pick ())) qs;
  for k = 0 to Prng.int prng 3 do
    B.output b (Printf.sprintf "o%d" k) (pick ())
  done;
  B.finalize b

let random_sequence nl ~length seed =
  let prng = Prng.create seed in
  let n_in = Array.length nl.Netlist.input_nets in
  Array.init length (fun _ -> Packvec.random prng n_in)

(* [Fault.full_list] leaves constant nets out; the compiled backend
   gives each constant its own slot, so stem faults on them are checked
   explicitly. *)
let faults_with_constants nl =
  let const_stems =
    List.concat
      (List.filter_map
         (fun net ->
           match nl.Netlist.gates.(net).Gate.kind with
           | Gate.Const _ ->
             Some
               (List.map
                  (fun polarity -> { Fault.site = Fault.Stem net; polarity })
                  [ Fault.Stuck_at_0; Fault.Stuck_at_1 ])
           | _ -> None)
         (List.init (Array.length nl.Netlist.gates) Fun.id))
  in
  Fault.full_list nl @ const_stems

let same_report (a : Fsim.report) (b : Fsim.report) =
  a.Fsim.total = b.Fsim.total
  && a.Fsim.detected = b.Fsim.detected
  && a.Fsim.patterns_applied = b.Fsim.patterns_applied
  && Array.for_all2
       (fun (da : Fsim.detection) (db : Fsim.detection) ->
         da.Fsim.fault = db.Fsim.fault
         && da.Fsim.detected_at = db.Fsim.detected_at)
       a.Fsim.detections b.Fsim.detections

(* [f] under a context with a [jobs]-domain pool, or the default one. *)
let with_jobs jobs f =
  if jobs = 1 then f Ctx.default
  else begin
    let pool = Pool.create ~domains:jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Ctx.with_pool pool))
  end

(* ------------------------------------------------------------------ *)
(* Pattern generation and packing                                     *)
(* ------------------------------------------------------------------ *)

(* The uniform pattern stream feeds every pseudo-random campaign
   number: a digest of its words pins the stream itself, so a faster
   draw that moves one bit fails here before it moves a golden. *)
let test_uniform_sequence_pinned () =
  let seq = Prpg.uniform_sequence (Prng.create 2005) ~bits:36 ~length:100_000 in
  let buf = Buffer.create (8 * Array.length seq) in
  Array.iter
    (fun p -> Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) (Packvec.words p))
    seq;
  Alcotest.(check string) "digest of the pattern words" "e5e5daaf4d9ee26cbc99ad13c4a68ef1"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The per-bit loop [Fsim_kernel.pack_patterns] replaced: lane [l] of
   input [k] is bit [k] of pattern [lo + l]. *)
let pack_reference ~n_in (patterns : Packvec.t array) lo len =
  Array.init n_in (fun k ->
      let w = ref 0 in
      for l = 0 to len - 1 do
        if Packvec.get patterns.(lo + l) k then w := !w lor (1 lsl l)
      done;
      !w)

let inputs_only_netlist n_in =
  let b = B.create (Printf.sprintf "in%d" n_in) in
  let nets = Array.init n_in (fun k -> B.input b (Printf.sprintf "i%d" k)) in
  B.output b "y" nets.(n_in - 1);
  B.finalize b

(* Widths at and around every block edge (32, 63, 64) and word count
   (1, 2, 3 pattern words), every batch length, an offset batch, and
   one scratch and one word array reused across all of them. *)
let prop_pack_matches_reference =
  let widths = [ 1; 31; 32; 33; 36; 62; 63; 64; 126; 128; 130 ] in
  QCheck.Test.make ~name:"pack_patterns = per-bit packing" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 1 40)))
    (fun (seed, lo) ->
      let prng = Prng.create seed in
      List.for_all
        (fun n_in ->
          let nl = inputs_only_netlist n_in in
          let patterns =
            Array.init (lo + Bitsim.word_bits) (fun _ -> Packvec.random prng n_in)
          in
          let scratch = Mutsamp_fault.Fsim_kernel.pack_scratch () in
          let words = Array.make n_in 0 in
          List.for_all
            (fun len ->
              Mutsamp_fault.Fsim_kernel.pack_patterns nl patterns lo len ~scratch words;
              words = pack_reference ~n_in patterns lo len)
            (List.init Bitsim.word_bits (fun l -> l + 1)))
        widths)

let test_pack_checks_width () =
  let nl = inputs_only_netlist 36 in
  let patterns = Array.init 40 (fun k -> Packvec.create (if k = 37 then 35 else 36)) in
  Alcotest.check_raises "a narrow pattern in the batch"
    (Invalid_argument "Fsim.run: pattern width 35 does not match 36 inputs")
    (fun () ->
      Mutsamp_fault.Fsim_kernel.pack_patterns nl patterns 0 40
        ~scratch:(Mutsamp_fault.Fsim_kernel.pack_scratch ())
        (Array.make 36 0))

(* [Prng.int] draw for draw against the rejection loop it shortcuts for
   powers of two; the non-powers include bounds above 2^61, where the
   loop rejects about half the draws. *)
let test_prng_int_matches_rejection () =
  let rejection t bound =
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (Prng.bits64 t) 2) land mask in
      let r = v mod bound in
      if v - r > mask - bound + 1 then draw () else r
    in
    draw ()
  in
  List.iter
    (fun bound ->
      let a = Prng.create 2005 and b = Prng.create 2005 in
      for i = 1 to 10_000 do
        let x = Prng.int a bound and y = rejection b bound in
        if x <> y then Alcotest.failf "bound %d, draw %d: %d <> %d" bound i x y
      done;
      check_bool (Printf.sprintf "bound %d: streams stay in step" bound) true
        (Prng.bits64 a = Prng.bits64 b))
    [ 1; 2; 1 lsl 30; 1 lsl 61; 3; 7; 1000; (1 lsl 30) + 1; (1 lsl 61) + 1; max_int ]

(* ------------------------------------------------------------------ *)
(* Random-netlist differential properties                             *)
(* ------------------------------------------------------------------ *)

let prop_run_matches_serial ~dffs ~name =
  QCheck.Test.make ~name ~count:80
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~dffs seed in
      let faults = faults_with_constants nl in
      let len = if dffs then 6 + (seed mod 12) else 20 + (seed mod 60) in
      let sequence = random_sequence nl ~length:len seed in
      same_report (Fsim.serial nl ~faults ~sequence) (Fsim.run nl ~faults ~sequence))

let prop_comb_run_matches_serial =
  prop_run_matches_serial ~dffs:false ~name:"compiled = serial (comb)"

let prop_seq_run_matches_serial =
  prop_run_matches_serial ~dffs:true ~name:"packed = serial (seq)"

(* What one run learns about a sequential netlist value may serve the
   next run on it, so run one value again and again: sequences of 64
   to 512 cycles over at most 5 input bits, some shorter than the one
   before, one sharded. Every run must equal the serial reference. *)
let prop_seq_repeated_runs_match_serial =
  QCheck.Test.make ~name:"packed = serial, repeated runs on one netlist" ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~dffs:true seed in
      let faults = faults_with_constants nl in
      List.for_all
        (fun (k, length, jobs) ->
          let sequence = random_sequence nl ~length (seed + k) in
          with_jobs jobs @@ fun ctx ->
          same_report (Fsim.serial nl ~faults ~sequence) (Fsim.run ~ctx nl ~faults ~sequence))
        [ (0, 64, 1); (1, 512, 1); (2, 96, 2); (3, 256, 1); (4, 512, 1) ])

(* The compiled program against the reference evaluator, lane by lane
   over multi-cycle 63-lane sequences: every net's word (through the
   layout's slot map), the outputs, and the next state in the pending
   slots that close the scratch array. *)
let prop_program_matches_bitsim =
  QCheck.Test.make ~name:"Program.step = Bitsim.step" ~count:80
    (QCheck.make QCheck.Gen.(int_range 0 1000000))
    (fun seed ->
      let nl = random_netlist ~dffs:(seed mod 4 <> 0) seed in
      let prng = Prng.create (seed + 1) in
      let p = Program.of_netlist nl in
      let slot = (Program.layout nl).Program.slot in
      let v = Array.make (Program.words p) 0 in
      let sim = Bitsim.create nl in
      let n_in = Program.input_bits p and nf = Netlist.num_dffs nl in
      let outs = Array.make (Program.output_bits p) 0 in
      Program.reset p v;
      Bitsim.reset sim;
      List.for_all
        (fun _ ->
          let inputs = Array.init n_in (fun _ -> Int64.to_int (Prng.bits64 prng)) in
          let expected = Bitsim.step sim inputs in
          Program.step p v inputs 0;
          Program.outputs p v outs 0;
          outs = expected
          && Array.for_all2 (fun word s -> v.(s) = word) (Bitsim.net_values sim) slot
          && Array.sub v (Program.words p - nf) nf = Bitsim.dff_states sim)
        (List.init (1 + (seed mod 10)) Fun.id))

(* Every code-word slot field is 20 bits wide. *)
let test_program_slot_limit () =
  let netlist n =
    {
      Netlist.name = "consts";
      gates = Array.make n { Gate.kind = Gate.Const false; fanins = [||] };
      input_nets = [||];
      output_list = [||];
      dff_nets = [||];
    }
  in
  check_int "2^20 slots fit" (1 lsl 20) (Program.words (Program.of_netlist (netlist (1 lsl 20))));
  check_bool "2^20 + 1 slots rejected" true
    (match Program.of_netlist (netlist ((1 lsl 20) + 1)) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Registry circuits at every shard fan-out                           *)
(* ------------------------------------------------------------------ *)

(* Detection reports must not depend on the backend OR on how the fault
   list is sharded across domains — the merge of contiguous shards is
   bit-identical because per-fault first detection is independent of
   grouping. Runs the whole registry: comb ISCAS nets (compiled), seq
   ITC bench machines (packed), and the >62-input wide128 regression. *)
let test_registry_all_engines_all_jobs () =
  List.iter
    (fun (e : Registry.entry) ->
      let nl = Flow.synthesize (e.Registry.design ()) in
      let faults = (Collapse.run nl).Collapse.representatives in
      let bits = Array.length nl.Netlist.input_nets in
      let length = if Netlist.num_dffs nl = 0 then 24 else 12 in
      let sequence = Prpg.uniform_sequence (Prng.create 7) ~bits ~length in
      let reference = Fsim.serial nl ~faults ~sequence in
      List.iter
        (fun jobs ->
          with_jobs jobs @@ fun ctx ->
          check_bool
            (Printf.sprintf "%s: run at jobs %d differs from serial" e.Registry.name jobs)
            true
            (same_report reference (Fsim.run ~ctx nl ~faults ~sequence)))
        [ 1; 2; 4 ])
    Registry.all

(* Several full 63-pattern batches and a partial last one, so every
   lane of the packed input words and the detection index across batch
   boundaries are checked, on c432 and on the 128-input wide128. *)
let test_compiled_multi_batch () =
  List.iter
    (fun name ->
      let e = Option.get (Registry.find name) in
      let nl = Flow.synthesize (e.Registry.design ()) in
      let faults = (Collapse.run nl).Collapse.representatives in
      let sequence =
        Prpg.uniform_sequence (Prng.create 29)
          ~bits:(Array.length nl.Netlist.input_nets)
          ~length:200
      in
      let reference = Fsim.serial nl ~faults ~sequence in
      check_bool (name ^ ": detections past the first batch") true
        (Array.exists
           (fun (d : Fsim.detection) ->
             match d.Fsim.detected_at with Some c -> c >= Bitsim.word_bits | None -> false)
           reference.Fsim.detections);
      List.iter
        (fun jobs ->
          with_jobs jobs @@ fun ctx ->
          check_bool
            (Printf.sprintf "%s: 200 patterns at jobs %d differ from serial" name jobs)
            true
            (same_report reference (Fsim.run ~ctx nl ~faults ~sequence)))
        [ 1; 2 ])
    [ "c432"; "wide128" ]

let synthesize name = Flow.synthesize ((Option.get (Registry.find name)).Registry.design ())

let uniform nl ~length seed =
  Prpg.uniform_sequence (Prng.create seed) ~bits:(Array.length nl.Netlist.input_nets) ~length

(* Runs on one netlist value may share what was compiled for it, so
   interleave designs: c432 on half its faults, full-scan b03, a
   structurally equal copy of c432 that is another value, b01 on the
   packed backend, then the first c432 value again on every fault,
   half of them never simulated on it before. *)
let test_interleaved_netlists () =
  let c432 = synthesize "c432" and c432_copy = synthesize "c432" in
  check_bool "copy is equal" true (c432_copy = c432);
  check_bool "copy is another value" true (c432_copy != c432);
  let b03 = Mutsamp_atpg.Scan.full_scan (synthesize "b03") and b01 = synthesize "b01" in
  let all nl = (Collapse.run nl).Collapse.representatives in
  let half = List.filteri (fun i _ -> i mod 2 = 0) (all c432) in
  List.iteri
    (fun k (name, nl, faults, length) ->
      let sequence = uniform nl ~length (41 + k) in
      check_bool
        (Printf.sprintf "run %d (%s) differs from serial" k name)
        true
        (same_report (Fsim.serial nl ~faults ~sequence) (Fsim.run nl ~faults ~sequence)))
    [
      ("c432", c432, half, 70);
      ("b03 full-scan", b03, all b03, 40);
      ("c432 copy", c432_copy, all c432_copy, 30);
      ("b01", b01, all b01, 60);
      ("c432", c432, all c432, 100);
    ]

(* Four campaign cells on a 4-domain pool simulate one c499 netlist,
   never run before, on overlapping fault subsets and their own
   patterns: what they compile for it concurrently must give the
   reports of the same runs made one after another. *)
let test_cells_share_netlist () =
  let nl = synthesize "c499" in
  let faults = (Collapse.run nl).Collapse.representatives in
  let cells =
    List.init 4 (fun k ->
        ( List.filteri (fun i _ -> (i + k) mod 3 <> 0) faults,
          uniform nl ~length:(20 + (40 * k)) (13 + k) ))
  in
  let parallel =
    with_jobs 4 @@ fun ctx ->
    Ctx.map_cells ctx cells ~f:(fun (faults, sequence) -> Fsim.run ~ctx nl ~faults ~sequence)
  in
  List.iteri
    (fun k ((faults, sequence), r) ->
      check_bool
        (Printf.sprintf "cell %d differs from the sequential run" k)
        true
        (same_report (Fsim.run nl ~faults ~sequence) r))
    (List.combine cells parallel)

(* ------------------------------------------------------------------ *)
(* Packed sequential engine: dropping, activity skipping, regrouping  *)
(* ------------------------------------------------------------------ *)

let sequential_circuits () =
  List.filter_map
    (fun (e : Registry.entry) ->
      let nl = Flow.synthesize (e.Registry.design ()) in
      if Netlist.num_dffs nl = 0 then None
      else Some (e.Registry.name, nl, (Collapse.run nl).Collapse.representatives))
    Registry.all

let circuit name =
  match List.find_opt (fun (n, _, _) -> n = name) (sequential_circuits ()) with
  | Some (_, nl, faults) -> (nl, faults)
  | None -> Alcotest.failf "%s is not a sequential registry circuit" name

(* Q-stem and D-pin faults on every flip-flop, which the collapsed list
   may fold into other classes. *)
let dff_faults nl =
  List.concat_map
    (fun q ->
      List.concat_map
        (fun polarity ->
          [
            { Fault.site = Fault.Stem q; polarity };
            { Fault.site = Fault.Branch { gate = q; pin = 0 }; polarity };
          ])
        [ Fault.Stuck_at_0; Fault.Stuck_at_1 ])
    (Array.to_list nl.Netlist.dff_nets)

let seq_sequence nl ~length seed =
  Prpg.uniform_sequence (Prng.create seed)
    ~bits:(Array.length nl.Netlist.input_nets)
    ~length

(* Every sequential registry circuit over 512 cycles — long enough for
   most faults to drop mid-sequence while the hard ones stay alive to
   the end — at every shard fan-out, over two fault lists: the
   collapsed one plus flip-flop faults, and the uncollapsed one, whose
   words hold a gate's stem, both its pins and both polarities
   together. *)
let test_packed_sequential_registry_512 () =
  List.iter
    (fun (name, nl, collapsed) ->
      let sequence = seq_sequence nl ~length:512 5 in
      List.iter
        (fun (list, faults) ->
          let reference = Fsim.serial nl ~faults ~sequence in
          List.iter
            (fun jobs ->
              with_jobs jobs @@ fun ctx ->
              let r = Fsim.run ~ctx nl ~faults ~sequence in
              check_bool
                (Printf.sprintf "%s, %s list: packed at jobs %d differs from serial" name
                   list jobs)
                true (same_report reference r))
            [ 1; 2; 4 ])
        [ ("collapsed", collapsed @ dff_faults nl); ("full", Fault.full_list nl) ])
    (sequential_circuits ())

(* A cut run keeps the reference report's shape — every fault, the
   whole sequence — and [expected i] is fault [i]'s first detection. *)
let check_detections ~(reference : Fsim.report) (r : Fsim.report) expected =
  check_int "patterns applied" reference.Fsim.patterns_applied r.Fsim.patterns_applied;
  check_int "total keeps every fault" reference.Fsim.total r.Fsim.total;
  Array.iteri
    (fun i (d : Fsim.detection) ->
      check_bool (Printf.sprintf "fault %d detection" i) true
        (d.Fsim.detected_at = expected i))
    r.Fsim.detections

(* The single fsim degradation a cut run records; returns its trigger. *)
let single_cut () =
  match
    List.filter
      (fun (ev : Degrade.event) -> ev.Degrade.stage = Rerror.Fsim)
      (Degrade.events ())
  with
  | [ ev ] ->
    Alcotest.(check string) "cut detail" Mutsamp_fault.Fsim_kernel.parallel_cut_detail
      ev.Degrade.detail;
    ev.Degrade.error
  | evs -> Alcotest.failf "expected one fsim degradation, got %d" (List.length evs)

(* An [Fsim_pairs] quota is charged per group of [lanes] faults, for the
   whole sequence, up front and in fault order: a quota worth two and a
   half groups admits exactly the first two groups, which report the
   serial reference's detections, and leaves every later fault
   undetected, with the cut on record. *)
let test_packed_sequential_budget_cut () =
  let nl, faults = circuit "b03" in
  let length = 64 in
  let sequence = seq_sequence nl ~length 13 in
  let reference = Fsim.serial nl ~faults ~sequence in
  let lanes = Mutsamp_netlist.Bitsim.word_bits in
  check_bool "more than two groups of faults" true (List.length faults > 2 * lanes);
  Degrade.reset ();
  let budget = Budget.create ~fsim_pairs:((5 * lanes * length / 2) + 1) () in
  let r =
    Fsim.run ~ctx:(Ctx.make ~budget ()) nl ~faults ~sequence
  in
  check_detections ~reference r (fun i ->
      if i < 2 * lanes then reference.Fsim.detections.(i).Fsim.detected_at else None);
  check_bool "quota exhaustion" true
    (match single_cut () with Rerror.Budget_exhausted _ -> true | _ -> false);
  Degrade.reset ()

(* A deadline that expires mid-run (here: from the progress callback, at
   the first cycle that detects anything) stops the engine at the next
   cycle boundary. Faults detected up to then keep their cycle, every
   other fault is reported undetected, and the cut is on record. *)
let test_packed_sequential_expire () =
  let nl, faults = circuit "b03" in
  let sequence = seq_sequence nl ~length:256 17 in
  let reference = Fsim.serial nl ~faults ~sequence in
  let first =
    Array.fold_left
      (fun acc (d : Fsim.detection) ->
        match d.Fsim.detected_at with Some c -> min acc c | None -> acc)
      max_int reference.Fsim.detections
  in
  check_bool "serial detects after the first detection cycle too" true
    (Array.exists
       (fun (d : Fsim.detection) ->
         match d.Fsim.detected_at with Some c -> c > first | None -> false)
       reference.Fsim.detections);
  Degrade.reset ();
  let budget = Budget.create ~deadline_ms:600_000 () in
  let ctx =
    Ctx.make ~budget ~progress:(fun ~stage:_ ~done_:_ ~total:_ -> Budget.expire budget) ()
  in
  let r = Fsim.run ~ctx nl ~faults ~sequence in
  check_detections ~reference r (fun i ->
      match reference.Fsim.detections.(i).Fsim.detected_at with
      | Some c when c = first -> Some c
      | Some _ | None -> None);
  check_bool "timeout" true (single_cut () = Rerror.Timeout Rerror.Fsim);
  Degrade.reset ()

(* [fsim.*] counts the logical workload — machine steps are fault·cycles
   through each fault's detection cycle — so the packed backend must
   read the same as the serial reference; only [fsim.engine.*] names
   the backend. *)
let test_fsim_counters_engine_invariant () =
  List.iter
    (fun name ->
      let nl, faults = circuit name in
      let sequence = seq_sequence nl ~length:256 23 in
      let counters simulate =
        Metrics.set_enabled true;
        Metrics.reset ();
        ignore (simulate nl ~faults ~sequence);
        let snap = Metrics.snapshot () in
        Metrics.reset ();
        Metrics.set_enabled false;
        List.filter
          (fun (n, _) ->
            String.starts_with ~prefix:"fsim." n
            && not (String.starts_with ~prefix:"fsim.engine." n))
          snap.Metrics.counters
      in
      let serial = counters (fun nl -> Fsim.serial nl) in
      check_bool (name ^ ": machine steps counted") true
        (List.mem_assoc "fsim.machine_steps" serial);
      check_bool
        (name ^ ": fsim.* under packed equals serial")
        true
        (counters (fun nl -> Fsim.run nl) = serial))
    [ "b01"; "b03" ]

(* ------------------------------------------------------------------ *)
(* Packed sequential engine: faults proven untestable drop out        *)
(* ------------------------------------------------------------------ *)

module C = Mutsamp_fault.Fsim_compiled

(* [f ()] with metrics on, and the counters it moved. *)
let counting f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
    (fun () ->
      let r = f () in
      let counters = (Metrics.snapshot ()).Metrics.counters in
      (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters)))

(* The faults the packed backend holds proven untestable on [nl]. *)
let proven nl faults =
  let e = C.compiled nl in
  List.filter (fun f -> Atomic.get (C.verdict e f) = C.untestable) faults

(* A one-shot run on a fresh netlist value proves nothing: only the
   faults it leaves undetected become candidates for the next run. *)
let test_first_run_drops_nothing () =
  let nl, faults = circuit "b03" in
  let sequence = seq_sequence nl ~length:4096 3 in
  let r, count = counting (fun () -> Fsim.run nl ~faults ~sequence) in
  check_int "no search" 0 (count "exec.fsim_proofs");
  check_int "nothing dropped" 0 (count "exec.fsim_untestable_dropped");
  check_int "nothing proven" 0 (List.length (proven nl faults));
  check_bool "some faults left undetected" true (r.Fsim.detected < r.Fsim.total)

(* Two 4096-cycle runs: the second proves what the first left
   undetected and drops it, and still equals the serial reference, in
   its report and in [fsim.machine_steps]. On b03 that is the 125
   faults that cap its coverage at 78%. *)
let test_second_run_drops_untestable () =
  List.iter
    (fun (name, expected, total) ->
      let nl, faults = circuit name in
      check_int (name ^ " collapsed faults") total (List.length faults);
      ignore (Fsim.run nl ~faults ~sequence:(seq_sequence nl ~length:4096 3));
      let sequence = seq_sequence nl ~length:4096 4 in
      let r, count = counting (fun () -> Fsim.run nl ~faults ~sequence) in
      check_int (name ^ " dropped") expected (count "exec.fsim_untestable_dropped");
      check_int (name ^ " proven") expected (List.length (proven nl faults));
      let reference, serial_count = counting (fun () -> Fsim.serial nl ~faults ~sequence) in
      check_bool (name ^ " = serial") true (same_report reference r);
      check_int (name ^ " machine steps") (serial_count "fsim.machine_steps")
        (count "fsim.machine_steps"))
    [ ("b03", 125, 568); ("b01", 7, 218) ]

(* No fault the engine drops is detected by the serial reference over
   4096 fresh random cycles: on every sequential registry circuit after
   two runs, and on random netlists after runs of every length. *)
let check_dropped_undetected name nl faults seed =
  let dropped = proven nl faults in
  let r = Fsim.serial nl ~faults:dropped ~sequence:(random_sequence nl ~length:4096 seed) in
  if r.Fsim.detected > 0 then
    Alcotest.failf "%s: %d of %d dropped faults detected" name r.Fsim.detected
      (List.length dropped);
  List.length dropped

let test_dropped_stay_undetected () =
  List.iter
    (fun (name, nl, faults) ->
      let faults = faults @ dff_faults nl in
      List.iter
        (fun k -> ignore (Fsim.run nl ~faults ~sequence:(seq_sequence nl ~length:1024 k)))
        [ 1; 2 ];
      ignore (check_dropped_undetected name nl faults 99))
    (sequential_circuits ());
  let total = ref 0 in
  for seed = 0 to 29 do
    let nl = random_netlist ~dffs:true seed in
    let faults = faults_with_constants nl in
    List.iter
      (fun length ->
        ignore (Fsim.run nl ~faults ~sequence:(random_sequence nl ~length (seed + length))))
      [ 64; 512; 256 ];
    total := !total + check_dropped_undetected (Printf.sprintf "eng%d" seed) nl faults seed
  done;
  check_bool "random netlists drop some faults" true (!total > 0)

(* b04 has 9 input bits: a 4096-cycle run lets each search reach at
   most 4096 / 512 = 8 joint states, however large the reachable
   space. *)
let test_searches_bounded () =
  let nl, faults = circuit "b04" in
  ignore (Fsim.run nl ~faults ~sequence:(seq_sequence nl ~length:4096 3));
  let sequence = seq_sequence nl ~length:4096 4 in
  let r, count = counting (fun () -> Fsim.run nl ~faults ~sequence) in
  check_bool "searches ran" true (count "exec.fsim_proofs" > 0);
  check_bool "at most 8 states per fault" true
    (count "exec.fsim_proof_states" <= 8 * List.length faults);
  check_bool "at most 8 states per search" true
    (count "exec.fsim_proof_states" <= 8 * count "exec.fsim_proofs");
  check_bool "= serial" true (same_report (Fsim.serial nl ~faults ~sequence) r)

let suite =
  [
    ( "engines.differential",
      [
        QCheck_alcotest.to_alcotest prop_comb_run_matches_serial;
        QCheck_alcotest.to_alcotest prop_seq_run_matches_serial;
        QCheck_alcotest.to_alcotest prop_seq_repeated_runs_match_serial;
        QCheck_alcotest.to_alcotest prop_program_matches_bitsim;
        Alcotest.test_case "Program slot limit" `Quick test_program_slot_limit;
      ] );
    ( "engines.patterns",
      [
        Alcotest.test_case "uniform stream pinned" `Quick test_uniform_sequence_pinned;
        Alcotest.test_case "Prng.int = rejection loop" `Quick
          test_prng_int_matches_rejection;
        QCheck_alcotest.to_alcotest prop_pack_matches_reference;
        Alcotest.test_case "pack_patterns checks every width" `Quick
          test_pack_checks_width;
      ] );
    ( "engines.registry",
      [
        Alcotest.test_case "whole registry, all engines, jobs 1/2/4" `Slow
          test_registry_all_engines_all_jobs;
        Alcotest.test_case "c432 and wide128, 200 patterns, jobs 1/2" `Slow
          test_compiled_multi_batch;
        Alcotest.test_case "interleaved netlists = serial" `Slow test_interleaved_netlists;
        Alcotest.test_case "cells on one netlist, 4 domains" `Slow test_cells_share_netlist;
      ] );
    ( "engines.sequential",
      [
        Alcotest.test_case "sequential registry, 512 cycles, jobs 1/2/4" `Slow
          test_packed_sequential_registry_512;
        Alcotest.test_case "fsim_pairs cut admits whole groups" `Quick
          test_packed_sequential_budget_cut;
        Alcotest.test_case "deadline expired mid-run" `Quick
          test_packed_sequential_expire;
        Alcotest.test_case "fsim.* counters engine-invariant" `Quick
          test_fsim_counters_engine_invariant;
      ] );
    ( "engines.untestable",
      [
        Alcotest.test_case "first run drops nothing" `Quick test_first_run_drops_nothing;
        Alcotest.test_case "second run drops b03's 125, b01's 7" `Quick
          test_second_run_drops_untestable;
        Alcotest.test_case "dropped faults stay undetected" `Slow
          test_dropped_stay_undetected;
        Alcotest.test_case "b04 searches bounded by the run" `Quick test_searches_bounded;
      ] );
  ]
