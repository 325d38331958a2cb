(* The benchmark's workloads and the untraced child that runs one.

   A workload is a fixed list of CLI campaigns. A run of it executes
   those campaigns once per sub-seed in a fresh process, through the
   same [Mutsamp_serve.Jobs] bodies the CLI prints, so the child's
   output is the CLI's stdout byte for byte. *)

module Jobs = Mutsamp_serve.Jobs
module Ctx = Mutsamp_exec.Ctx
module Degrade = Mutsamp_robust.Degrade

type job =
  | Table1 of { circuits : string list; quick : bool }
  | Table2 of { circuits : string list; quick : bool; repetitions : int }
  | Faultsim of { circuit : string; vectors : int }
  | Atpg of { circuit : string }  (** PODEM, the CLI default *)

type t = {
  name : string;
  jobs : job list;
  smoke : job list;  (** the same campaign shape on c17/b01, for [--smoke] *)
}

(* Why each workload is here, and what it should and should not move,
   is in README.md and BENCHMARK.json. *)
let all =
  [
    {
      name = "t1-comb";
      jobs = [ Table1 { circuits = [ "c432"; "c499" ]; quick = false } ];
      smoke = [ Table1 { circuits = [ "c17" ]; quick = false } ];
    };
    {
      name = "t2-comb";
      jobs = [ Table2 { circuits = [ "c432" ]; quick = true; repetitions = 5 } ];
      smoke = [ Table2 { circuits = [ "c17" ]; quick = true; repetitions = 2 } ];
    };
    {
      name = "t1-seq";
      jobs = [ Table1 { circuits = [ "b01"; "b03" ]; quick = false } ];
      smoke = [ Table1 { circuits = [ "b01" ]; quick = true } ];
    };
    {
      name = "structural";
      jobs =
        [
          Faultsim { circuit = "c432"; vectors = 1_048_576 };
          Atpg { circuit = "c432" };
          Atpg { circuit = "b03" };
        ];
      smoke =
        [
          Faultsim { circuit = "c17"; vectors = 4096 };
          Atpg { circuit = "c17" };
          Atpg { circuit = "b01" };
        ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Each run executes its campaigns on this many consecutive seeds
   (seed, seed+1, ...): the work a campaign does depends on its seed by
   several percent, and averaging over a few seeds keeps that spread
   below the bounds. *)
let seeds_per_run = 3

let sub_seeds seed = List.init seeds_per_run (fun k -> seed + k)

let circuits jobs =
  List.fold_left
    (fun acc job ->
      let cs =
        match job with
        | Table1 { circuits; _ } | Table2 { circuits; _ } -> circuits
        | Faultsim { circuit; _ } | Atpg { circuit } -> [ circuit ]
      in
      acc @ List.filter (fun c -> not (List.mem c acc)) cs)
    [] jobs

(* The mutsamp command line that prints the same bytes as [run_job]. *)
let cli_args ~seed job =
  let seed_arg = [ "--seed"; string_of_int seed ] in
  let quick_arg quick = if quick then [ "--quick" ] else [] in
  match job with
  | Table1 { circuits; quick } -> ("table1" :: circuits) @ quick_arg quick @ seed_arg
  | Table2 { circuits; quick; repetitions } ->
    ("table2" :: circuits) @ quick_arg quick
    @ [ "-r"; string_of_int repetitions ]
    @ seed_arg
  | Faultsim { circuit; vectors } ->
    [ "faultsim"; circuit; "-n"; string_of_int vectors ] @ seed_arg
  | Atpg { circuit } -> [ "atpg"; circuit ] @ seed_arg

let run_job ~seed job =
  let ctx = Ctx.default in
  match job with
  | Table1 { circuits; quick } -> Jobs.table1 ~ctx ~circuits ~quick ~seed
  | Table2 { circuits; quick; repetitions } ->
    Jobs.table2 ~ctx ~circuits ~quick ~seed ~repetitions ()
  | Faultsim { circuit; vectors } ->
    Jobs.faultsim ~ctx ~circuit ~vectors ~lfsr:false ~seed
  | Atpg { circuit } -> Jobs.atpg ~ctx ~circuit ~generator:"podem" ~seed

let golden_path ~workload ~seed =
  Printf.sprintf "campaign_bench/golden/%s.seed%d.out" workload seed

(* Peak resident set of this process: VmHWM where /proc exists, else
   the OCaml major heap's high-water mark. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
  in
  match from_proc () with
  | Some kb -> float_of_int kb /. 1024.
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* Untraced child: cold front end, then the job bodies, tracing and
   metrics off as in a plain CLI run. *)
let child ~jobs ~seed =
  let t0 = Unix.gettimeofday () in
  List.iter (fun c -> ignore (Jobs.prepare c)) (circuits jobs);
  let t1 = Unix.gettimeofday () in
  let out = String.concat "" (List.map (run_job ~seed) jobs) in
  let t2 = Unix.gettimeofday () in
  ( out,
    [
      ("setup_s", t1 -. t0);
      ("campaign_s", t2 -. t1);
      ("peak_rss_mb", peak_rss_mb ());
      ("degraded", float_of_int (List.length (Degrade.events ())));
    ] )
