(* Campaign benchmark: end-to-end and per-layer cost of the paper's
   campaigns, one fresh process per run, the way a mutsamp CLI user
   pays for one. See README.md for the workloads and metrics.

     campaign.exe [--seed N] [--seconds S] [--out FILE]
         every workload, runs interleaved round-robin, then one traced
         run per sub-seed of each; prints every metric, writes FILE
     campaign.exe --workload W --seed N --seconds S --trace 0|1
         one workload; the last stdout line is a JSON result holding
         the end-to-end metrics (trace 0) or the per-layer ones (trace 1)
     campaign.exe --smoke
         the c17/b01 variant of every workload once, untraced and traced
     campaign.exe --compare A.json B.json
         verdict per workload and end-to-end metric of two --out reports
     campaign.exe --check-goldens MUTSAMP [--promote]
         the committed golden outputs against the mutsamp CLI's stdout

   Runs go one at a time at --jobs 1. Every run's output is checked
   against the committed golden output for its seed, or, for seeds
   without one, against the other runs of the same seed. *)

module Json = Mutsamp_obs.Json
module Cliargs = Mutsamp_exec.Cliargs
module Config = Mutsamp_core.Config

let argv = Sys.argv
let has f = Cliargs.flag [ f ] argv
let opt f = Cliargs.value_opt ~long:f argv
let seed = Cliargs.int_opt ~long:"--seed" ~default:2005 argv
let seconds = float_of_int (Cliargs.int_opt ~long:"--seconds" ~default:40 argv)
let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("campaign: " ^ s); exit 2) fmt

let workload name =
  match Workload.find name with Some w -> w | None -> die "unknown workload %S" name

(* --- child ------------------------------------------------------------ *)

(* The child prints the campaign's output, then one line of JSON with
   its measurements. *)
let child name =
  let w = workload name in
  let jobs = if has "--smoke" then w.Workload.smoke else w.Workload.jobs in
  let num kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  let out, fields, layers, engines =
    if has "--traced" then Layers.child ~jobs ~seed
    else
      let out, fields = Workload.child ~jobs ~seed in
      (out, fields, [], [])
  in
  print_string out;
  print_endline
    (Json.to_compact
       (Json.Obj
          [
            ("fields", num fields);
            ("layers", num layers);
            ( "engines",
              Json.List
                (List.map (fun (c, e) -> Json.List [ Json.String c; Json.String e ]) engines)
            );
          ]))

(* --- statistics -------------------------------------------------------- *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method); the middle one is the median. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  match Array.length a with
  | 0 -> (0., 0., 0.)
  | 1 -> (a.(0), a.(0), a.(0))
  | n ->
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b > 0. then a /. b else 0.

(* --- runs -------------------------------------------------------------- *)

type sample = {
  sub_seed : int;
  fields : (string * float) list;  (** run_s plus the child's fields *)
  layers : (string * float) list;
  engines : (string * string) list;
  error : string option;
}

type acc = {
  w : Workload.t;
  smoke : bool;
  seeds : int list;
  reference : (int, string) Hashtbl.t;  (** expected output per sub-seed *)
  golden : int list;  (** sub-seeds whose reference is a committed golden *)
  mutable samples : sample list;  (** untraced, in run order *)
  mutable traced : sample list;
  mutable measured_s : float;
}

(* --- host speed -------------------------------------------------------- *)

(* A shared host's speed swings by 10-50% for seconds to minutes at a
   time, which is wider than the bounds. So a fixed kernel of this
   file's own code, with the campaigns' profile (allocation, sorting,
   hashing), is timed three times just before every child, and the
   child's end-to-end timings are scaled to the host speed at which the
   kernel's median takes [reference_kernel_s], the speed of the host
   the baseline was measured on. On a 2-vCPU VM, over ten seeds per
   workload, scaling cut the spread of the run medians of campaign_s
   from 7-11% to 2-6%. *)
let reference_kernel_s = 0.075

let kernel () =
  let a = Array.init 400_000 (fun i -> (i * 7919) land 0xFFFFF) in
  let l = List.init 150_000 (fun i -> a.((i * 2654435761) land 0x3FFFF)) in
  let h = Hashtbl.create 1024 in
  List.iter (fun x -> Hashtbl.replace h x ()) (List.sort compare l);
  Hashtbl.length h

let time_kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  now () -. t0

let make_acc ?(smoke = false) w seeds =
  let reference = Hashtbl.create 4 in
  let golden =
    if smoke then []
    else
      List.filter
        (fun s -> Sys.file_exists (Workload.golden_path ~workload:w.Workload.name ~seed:s))
        seeds
  in
  List.iter
    (fun s ->
      Hashtbl.replace reference s
        (In_channel.with_open_bin
           (Workload.golden_path ~workload:w.Workload.name ~seed:s)
           In_channel.input_all))
    golden;
  { w; smoke; seeds; reference; golden; samples = []; traced = []; measured_s = 0. }

(* The child running now, stopped and awaited if this process is
   interrupted, so no child outlives the benchmark. *)
let running = ref None

let () =
  let stop _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !running;
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* Run [prog] to completion: its stdout, exit status and wall time. *)
let spawn ?(stderr = Unix.stderr) prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w stderr in
  running := Some pid;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  running := None;
  (text, status, now () -. t0)

let floats = function
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Float f -> Some (k, f)
        | Json.Int i -> Some (k, float_of_int i)
        | _ -> None)
      kvs
  | _ -> []

let run_child acc ~sub_seed ~traced =
  let args =
    [ "--child"; acc.w.Workload.name; "--seed"; string_of_int sub_seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if acc.smoke then [ "--smoke" ] else []
  in
  let kernel_s = median (List.init 3 (fun _ -> time_kernel ())) in
  let text, status, run_s = spawn Sys.executable_name args in
  let failed msg = { sub_seed; fields = []; layers = []; engines = []; error = Some msg } in
  match status with
  | Unix.WEXITED 0 -> (
    let body = String.sub text 0 (max 0 (String.length text - 1)) in
    let cut = match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0 in
    let output = String.sub text 0 cut in
    match Json.parse (String.sub body cut (String.length body - cut)) with
    | Error e -> failed ("unreadable result line: " ^ e)
    | Ok j ->
      let fields =
        ("kernel_s", kernel_s) :: ("run_s", run_s) :: floats (Json.member "fields" j)
      in
      let engines =
        match Json.member "engines" j with
        | Some (Json.List pairs) ->
          List.filter_map
            (function
              | Json.List [ Json.String c; Json.String e ] -> Some (c, e) | _ -> None)
            pairs
        | _ -> []
      in
      let error =
        if List.assoc_opt "degraded" fields <> Some 0. then Some "recorded a Degrade event"
        else
          match Hashtbl.find_opt acc.reference sub_seed with
          | None ->
            Hashtbl.replace acc.reference sub_seed output;
            None
          | Some expected when expected = output -> None
          | Some _ when List.mem sub_seed acc.golden -> Some "output differs from the golden file"
          | Some _ -> Some "output differs from an earlier run of the same seed"
      in
      { sub_seed; fields; layers = floats (Json.member "layers" j); engines; error })
  | Unix.WEXITED n -> failed (Printf.sprintf "exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> failed (Printf.sprintf "killed by signal %d" n)

(* One child per sub-seed, failures reported as they happen. *)
let run_seeds acc ~traced =
  List.map
    (fun sub_seed ->
      let s = run_child acc ~sub_seed ~traced in
      Option.iter
        (Printf.eprintf "campaign: %s seed %d: %s\n%!" acc.w.Workload.name sub_seed)
        s.error;
      s)
    acc.seeds

let round acc =
  let t0 = now () in
  acc.samples <- acc.samples @ run_seeds acc ~traced:false;
  acc.measured_s <- acc.measured_s +. (now () -. t0)

(* Whole rounds (one run per sub-seed), round-robin over the workloads,
   until each has been measured for [seconds]; at least one round. *)
let rec measure accs ~seconds =
  match List.filter (fun a -> a.samples = [] || a.measured_s < seconds) accs with
  | [] -> ()
  | pending ->
    List.iter round pending;
    measure accs ~seconds

let trace acc = acc.traced <- acc.traced @ run_seeds acc ~traced:true

(* --- metrics ----------------------------------------------------------- *)

(* The metric definitions of BENCHMARK.json: name, unit, better, bound. *)
type spec = { name : string; unit : string; better : string; bound : float }

let specs section =
  let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> "" in
  match Json.parse_file "BENCHMARK.json" with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok j -> (
    match Json.member section j with
    | Some (Json.List items) ->
      List.map
        (fun m ->
          {
            name = str "name" m;
            unit = str "unit" m;
            better = str "better" m;
            bound =
              (match Json.member "bound" m with
               | Some (Json.Float f) -> f
               | Some (Json.Int i) -> float_of_int i
               | _ -> 0.);
          })
        items
    | _ -> die "BENCHMARK.json has no %s list" section)

let ok samples = List.filter (fun s -> s.error = None) samples

let field name s =
  match List.assoc_opt name s.fields with
  | Some v -> v
  | None -> die "end-to-end metric %s is not measured" name

let attempted acc = List.length acc.samples + List.length acc.traced
let failed acc = attempted acc - List.length (ok acc.samples) - List.length (ok acc.traced)

(* How much slower than the reference host the host was just before
   this run. *)
let host_factor s = field "kernel_s" s /. reference_kernel_s

(* Values of an end-to-end metric over the correct untraced runs,
   timings scaled to the reference host speed. *)
let e2e_values acc spec =
  List.map
    (fun s -> if spec.unit = "s" then field spec.name s /. host_factor s else field spec.name s)
    (ok acc.samples)

(* Per-layer metrics: totals over the traced runs, and the ratios
   derived from them. *)
let layer_metrics acc =
  let traced = ok acc.traced in
  let sum k =
    List.fold_left
      (fun t s -> t +. Option.value ~default:0. (List.assoc_opt k s.layers))
      0. traced
  in
  let total f = List.fold_left (fun t s -> t +. f s) 0. traced in
  let traced_wall = total (field "campaign_s") in
  (* The overhead compares traced and untraced runs of the same seeds,
     both scaled to the reference host speed, since they ran at
     different times. *)
  let scaled s = field "campaign_s" s /. host_factor s in
  let untraced_scaled s =
    median (List.map scaled (List.filter (fun u -> u.sub_seed = s.sub_seed) (ok acc.samples)))
  in
  let direct =
    [
      "hdl.elaborate_s"; "synth.synthesize_s"; "fault.collapse_s";
      "mutation.generate_s"; "mutation.generate.alloc_mw"; "mutation.mutants";
      "validation.vectorgen_s"; "validation.vectorgen.calls";
      "validation.vectorgen.alloc_mw"; "validation.vectorgen.random_s";
      "validation.unknown_mutants"; "validation.score_s"; "core.equiv_s";
      "core.equiv.screen_s"; "core.equiv.alloc_mw"; "fault.fsim_s";
      "fault.fsim.calls"; "fault.fsim.pairs"; "atpg.topoff_s"; "atpg.prpg_s";
      "core.glue_s";
    ]
    @ Layers.counters
  in
  List.map (fun k -> (k, sum k)) direct
  @ [
      ( "validation.vectorgen.directed_s",
        sum "validation.vectorgen_s" -. sum "validation.vectorgen.random_s" );
      ( "validation.vectorgen.kill_yield",
        ratio (sum "vectorgen.accepted") (sum "vectorgen.candidates") );
      ("core.equiv.exact_s", sum "core.equiv_s" -. sum "core.equiv.screen_s");
      ("core.equiv.yield", ratio (sum "equiv.proven_equivalent") (sum "equiv.exact_checks"));
      ("fault.fsim.pairs_per_s", ratio (sum "fault.fsim.pairs") (sum "fault.fsim_s"));
      ("trace.coverage", ratio (sum "campaign_layers_s") traced_wall);
      ("trace.overhead_pct", 100. *. (ratio (total scaled) (total untraced_scaled) -. 1.));
    ]

(* Deterministic end-to-end figures that are 0 on some workloads, so
   they are reported and compared here but cannot be BENCHMARK.json
   end-to-end metrics, which must never be 0. *)
let exact_specs =
  [
    { name = "unknown_mutants"; unit = "count"; better = "lower"; bound = 0. };
    { name = "fail_ratio"; unit = "ratio"; better = "lower"; bound = 0. };
  ]

let exact_value acc name =
  match name with
  | "unknown_mutants" ->
    Option.value ~default:0. (List.assoc_opt "validation.unknown_mutants" (layer_metrics acc))
  | _ -> ratio (float_of_int (failed acc)) (float_of_int (attempted acc))

(* --- context ----------------------------------------------------------- *)

let first_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> line
     | _ -> None)

let utc t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let context ~started accs =
  let nproc =
    match Option.bind (first_line "nproc" []) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let commit =
    if Sys.file_exists ".git" then
      Option.value ~default:"unknown" (first_line "git" [ "rev-parse"; "HEAD" ])
    else "unknown"
  in
  let engines =
    List.sort_uniq compare
      (List.concat_map (fun a -> List.concat_map (fun s -> s.engines) (ok a.traced)) accs)
  in
  let config quick = Config.to_json { (if quick then Config.quick else Config.default) with Config.seed } in
  Json.Obj
    [
      ("nproc", Json.Int nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("commit", Json.String commit);
      ("seed", Json.Int seed);
      ("sub_seeds", Json.List (List.map (fun s -> Json.Int s) (Workload.sub_seeds seed)));
      ("jobs", Json.Int 1);
      ("reference_kernel_s", Json.Float reference_kernel_s);
      ( "host_factor",
        Json.Obj
          (List.map
             (fun a ->
               (a.w.Workload.name, Json.Float (median (List.map host_factor (ok a.samples)))))
             accs) );
      ( "runs",
        Json.Obj
          (List.map
             (fun a ->
               ( a.w.Workload.name,
                 Json.Obj
                   [
                     ("untraced", Json.Int (List.length a.samples));
                     ("traced", Json.Int (List.length a.traced));
                   ] ))
             accs) );
      ("config", Json.Obj [ ("default", config false); ("quick", config true) ]);
      ( "engines",
        Json.Obj
          (List.map
             (fun c ->
               ( c,
                 Json.List
                   (List.filter_map
                      (fun (c', e) -> if c = c' then Some (Json.String e) else None)
                      engines) ))
             (List.sort_uniq compare (List.map fst engines))) );
      ("started_utc", Json.String (utc started));
      ("finished_utc", Json.String (utc (now ())));
    ]

(* --- reports ----------------------------------------------------------- *)

let golden_status acc =
  match acc.golden with
  | [] -> "none"
  | g when List.length g = List.length acc.seeds -> "committed"
  | _ -> "partial"

let commands acc =
  List.concat_map
    (fun s ->
      List.map
        (fun job -> String.concat " " ("mutsamp" :: Workload.cli_args ~seed:s job))
        (if acc.smoke then acc.w.Workload.smoke else acc.w.Workload.jobs))
    acc.seeds

let print_header acc =
  Printf.printf "%s: %d untraced + %d traced runs (%d failed), golden %s\n"
    acc.w.Workload.name (List.length acc.samples) (List.length acc.traced) (failed acc)
    (golden_status acc)

let print_e2e acc spec =
  let values = e2e_values acc spec in
  let q1, m, q3 = quartiles values in
  Printf.printf "  %-32s %14.6f %-5s q1 %.6f q3 %.6f n %d\n" spec.name m spec.unit q1 q3
    (List.length values)

let print_layer spec v = Printf.printf "  %-32s %14.6f %s\n" spec.name v spec.unit

let lookup_layer acc spec =
  match List.assoc_opt spec.name (layer_metrics acc) with
  | Some v -> v
  | None -> die "per-layer metric %s is not measured" spec.name

let workload_report acc =
  let stats spec =
    let values = e2e_values acc spec in
    let q1, m, q3 = quartiles values in
    ( spec.name,
      Json.Obj
        [
          ("unit", Json.String spec.unit);
          ("median", Json.Float m);
          ("q1", Json.Float q1);
          ("q3", Json.Float q3);
          ("n", Json.Int (List.length values));
          ("samples", Json.List (List.map (fun v -> Json.Float v) values));
        ] )
  in
  let exact spec =
    (spec.name, Json.Obj [ ("unit", Json.String spec.unit); ("median", Json.Float (exact_value acc spec.name)) ])
  in
  Json.Obj
    [
      ("commands", Json.List (List.map (fun c -> Json.String c) (commands acc)));
      ("golden", Json.String (golden_status acc));
      ("attempted", Json.Int (attempted acc));
      ("failed", Json.Int (failed acc));
      ( "failures",
        Json.List
          (List.filter_map
             (fun s ->
               Option.map
                 (fun e -> Json.String (Printf.sprintf "seed %d: %s" s.sub_seed e))
                 s.error)
             (acc.samples @ acc.traced)) );
      ("e2e", Json.Obj (List.map stats (specs "end_to_end") @ List.map exact exact_specs));
      ( "layers",
        Json.Obj
          (List.map
             (fun spec ->
               ( spec.name,
                 Json.Obj
                   [
                     ("unit", Json.String spec.unit);
                     ("value", Json.Float (lookup_layer acc spec));
                   ] ))
             (specs "per_layer")) );
    ]

(* --- modes ------------------------------------------------------------- *)

let one_workload name =
  let started = now () in
  let acc = make_acc (workload name) (Workload.sub_seeds seed) in
  let traced =
    match opt "--trace" with
    | Some "1" -> true
    | None | Some "0" -> false
    | Some other -> die "--trace takes 0 or 1, not %S" other
  in
  if traced then trace acc;
  measure [ acc ] ~seconds:(seconds -. (now () -. started));
  print_header acc;
  let metrics =
    if traced then
      List.map
        (fun spec ->
          let v = lookup_layer acc spec in
          print_layer spec v;
          (spec, v))
        (specs "per_layer")
    else
      List.map
        (fun spec ->
          print_e2e acc spec;
          (spec, median (e2e_values acc spec)))
        (specs "end_to_end")
  in
  print_endline ("context: " ^ Json.to_compact (context ~started [ acc ]));
  print_endline
    (Json.to_compact
       (Json.Obj
          [
            ("correct", Json.Bool (failed acc = 0));
            ("attempted", Json.Int (attempted acc));
            ("failed", Json.Int (failed acc));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (spec, v) ->
                     ( spec.name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.String spec.unit) ] ))
                   metrics) );
          ]))

let full () =
  let started = now () in
  let accs = List.map (fun w -> make_acc w (Workload.sub_seeds seed)) Workload.all in
  measure accs ~seconds;
  List.iter trace accs;
  List.iter
    (fun acc ->
      print_header acc;
      List.iter (print_e2e acc) (specs "end_to_end");
      List.iter (fun spec -> print_layer spec (exact_value acc spec.name)) exact_specs;
      List.iter (fun spec -> print_layer spec (lookup_layer acc spec)) (specs "per_layer"))
    accs;
  let report =
    Json.Obj
      [
        ("schema", Json.String "campaign-bench/1");
        ("context", context ~started accs);
        ("workloads", Json.Obj (List.map (fun a -> (a.w.Workload.name, workload_report a)) accs));
      ]
  in
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string report)))
    (opt "--out");
  if List.exists (fun a -> failed a > 0) accs then exit 1

let smoke () =
  let accs = List.map (fun w -> make_acc ~smoke:true w [ seed ]) Workload.all in
  measure accs ~seconds:0.;
  List.iter trace accs;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := !problems @ [ s ]) fmt in
  List.iter
    (fun acc ->
      print_header acc;
      let name = acc.w.Workload.name in
      (* Printing a metric the runs do not measure stops with an error. *)
      List.iter (print_e2e acc) (specs "end_to_end");
      List.iter (fun spec -> print_layer spec (lookup_layer acc spec)) (specs "per_layer");
      if failed acc > 0 then problem "%s: fail_ratio %d/%d" name (failed acc) (attempted acc);
      let coverage = List.assoc "trace.coverage" (layer_metrics acc) in
      if coverage < 0.95 then problem "%s: trace.coverage %.3f < 0.95" name coverage)
    accs;
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) !problems;
  if !problems <> [] then exit 1;
  print_endline "smoke: ok"

let compare_reports a b =
  let load path =
    match Json.parse_file path with Ok j -> j | Error e -> die "%s: %s" path e
  in
  let num k j =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  let ja = load a and jb = load b in
  let workloads j =
    match Json.member "workloads" j with Some (Json.Obj ws) -> ws | _ -> die "no workloads"
  in
  let worse = ref false in
  Printf.printf "%-11s %-16s %28s %28s %8s %6s  %s\n" "workload" "metric" "A median [q1,q3]"
    "B median [q1,q3]" "delta" "bound" "verdict";
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname (workloads jb) with
      | None -> Printf.printf "%-11s missing from %s\n" wname b
      | Some wb ->
        List.iter
          (fun spec ->
            let get j =
              match Option.bind (Json.member "e2e" j) (Json.member spec.name) with
              | Some m -> m
              | None -> Json.Obj []
            in
            let ma = get wa and mb = get wb in
            let med_a = num "median" ma and med_b = num "median" mb in
            let spread m = ratio (num "q3" m -. num "q1" m) (num "median" m) in
            let delta = if med_a > 0. then (med_b -. med_a) /. med_a else med_b -. med_a in
            let delta = if spec.better = "higher" then -.delta else delta in
            let verdict =
              if Float.max (spread ma) (spread mb) > spec.bound then "unresolved"
              else if delta > spec.bound then "worse"
              else "ok"
            in
            if verdict = "worse" then worse := true;
            let cell m =
              Printf.sprintf "%.4f [%.4f,%.4f]" (num "median" m) (num "q1" m) (num "q3" m)
            in
            Printf.printf "%-11s %-16s %28s %28s %+7.1f%% %5.0f%%  %s\n" wname spec.name
              (cell ma) (cell mb) (100. *. delta) (100. *. spec.bound) verdict)
          (specs "end_to_end" @ exact_specs))
    (workloads ja);
  if !worse then exit 1

(* The golden files hold the CLI's stdout for these seeds' runs. *)
let golden_seeds = List.concat_map Workload.sub_seeds [ 2005; 1 ]

let check_goldens mutsamp =
  let promote = has "--promote" in
  (* The CLI's progress lines on stderr are not part of its output. *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let mismatches = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun s ->
          let out =
            String.concat ""
              (List.map
                 (fun job ->
                   let args = Workload.cli_args ~seed:s job in
                   match spawn ~stderr:null mutsamp args with
                   | text, Unix.WEXITED 0, _ -> text
                   | _ -> die "mutsamp %s failed" (String.concat " " args))
                 w.Workload.jobs)
          in
          let path = Workload.golden_path ~workload:w.Workload.name ~seed:s in
          let committed =
            if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
            else None
          in
          if committed = Some out then Printf.printf "ok        %s\n%!" path
          else if promote then begin
            Out_channel.with_open_bin path (fun oc -> output_string oc out);
            Printf.printf "promoted  %s\n%!" path
          end
          else begin
            incr mismatches;
            Printf.printf "MISMATCH  %s\n%!" path
          end)
        golden_seeds)
    Workload.all;
  if !mismatches > 0 then exit 1

let () =
  match (opt "--child", opt "--workload", opt "--check-goldens") with
  | Some name, _, _ -> child name
  | None, Some name, _ -> one_workload name
  | None, None, Some mutsamp -> check_goldens mutsamp
  | None, None, None ->
    if has "--compare" then
      let rec after = function
        | "--compare" :: a :: b :: _ -> compare_reports a b
        | _ :: rest -> after rest
        | [] -> die "--compare takes two report files"
      in
      after (Array.to_list argv)
    else if has "--smoke" then smoke ()
    else full ()
