module Json = Mutsamp_obs.Json
module Store = Mutsamp_store.Store
module Pretty = Mutsamp_hdl.Pretty
module Sim = Mutsamp_hdl.Sim
module Bitvec = Mutsamp_util.Bitvec
module Packvec = Mutsamp_util.Packvec
module Benchfmt = Mutsamp_netlist.Benchfmt
module Fault = Mutsamp_fault.Fault
module Fsim = Mutsamp_fault.Fsim
module Mutant = Mutsamp_mutation.Mutant
module Operator = Mutsamp_mutation.Operator
module Vectorgen = Mutsamp_validation.Vectorgen
module Score = Mutsamp_validation.Score
module Topoff = Mutsamp_atpg.Topoff

(* --- content hashes ---------------------------------------------------- *)

type hashes = { design_h : string; netlist_h : string; faults_h : string }

let design_hash d = Store.digest (Pretty.design d)
let netlist_hash nl = Store.digest (Benchfmt.to_string nl)

let faults_hash faults =
  Store.digest (String.concat ";" (List.map Fault.to_string faults))

let sequence_hash patterns =
  let b = Buffer.create 256 in
  Array.iter
    (fun p ->
      Buffer.add_string b (string_of_int (Packvec.width p));
      Array.iter
        (fun w ->
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int w))
        (Packvec.words p);
      Buffer.add_char b ';')
    patterns;
  Store.digest (Buffer.contents b)

let mutants_hash mutants =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Mutant.t) ->
      Buffer.add_string b
        (Printf.sprintf "%d/%s\n" m.Mutant.id (Operator.name m.Mutant.op));
      Buffer.add_string b (Pretty.design m.Mutant.design))
    mutants;
  Store.digest (Buffer.contents b)

let config_hash cfg = Store.digest (Json.to_string (Config.to_json cfg))

let vector_config_hash (vc : Vectorgen.config) =
  Store.digest
    (Printf.sprintf "%d/%d/%d/%d/%b/%b" vc.Vectorgen.seed vc.max_stall
       vc.sequence_length vc.max_vectors vc.directed vc.minimize)

let int_list_hash xs = Store.digest (String.concat "," (List.map string_of_int xs))

let generator_name = function Topoff.Use_podem -> "podem" | Topoff.Use_sat -> "sat"

(* --- codec helpers ----------------------------------------------------- *)

let int_list_to_json xs = Json.List (List.map (fun i -> Json.Int i) xs)

let all_some xs = if List.exists Option.is_none xs then None else Some (List.map Option.get xs)

let int_list_of_json = function
  | Json.List xs ->
    all_some (List.map (function Json.Int i -> Some i | _ -> None) xs)
  | _ -> None

let field_int j k = match Json.member k j with Some (Json.Int v) -> Some v | _ -> None
let field_bool j k = match Json.member k j with Some (Json.Bool v) -> Some v | _ -> None

let field_num j k =
  match Json.member k j with
  | Some (Json.Float v) -> Some v
  | Some (Json.Int v) -> Some (float_of_int v)
  | _ -> None

let field_ints j k = Option.bind (Json.member k j) int_list_of_json

(* --- word-level values ------------------------------------------------- *)

(* Bitvec round-trips through its binary-literal rendering ("5'b01101",
   MSB first) — already canonical and human-greppable in store files. *)
let bitvec_of_string s =
  match String.index_opt s '\'' with
  | Some i when i + 1 < String.length s && s.[i + 1] = 'b' -> (
    let bits = String.sub s (i + 2) (String.length s - i - 2) in
    match int_of_string_opt (String.sub s 0 i) with
    | Some w
      when w >= 1
           && String.length bits = w
           && String.for_all (fun c -> c = '0' || c = '1') bits ->
      Some (Bitvec.init w (fun k -> bits.[w - 1 - k] = '1'))
    | _ -> None)
  | _ -> None

let stimulus_to_json (st : Sim.stimulus) =
  Json.Obj (List.map (fun (n, bv) -> (n, Json.String (Bitvec.to_string bv))) st)

let stimulus_of_json = function
  | Json.Obj fields ->
    all_some
      (List.map
         (function
           | n, Json.String s -> Option.map (fun bv -> (n, bv)) (bitvec_of_string s)
           | _ -> None)
         fields)
  | _ -> None

let test_set_to_json ts =
  Json.List
    (List.map (fun seq -> Json.List (List.map stimulus_to_json seq)) ts)

let test_set_of_json = function
  | Json.List seqs ->
    all_some
      (List.map
         (function
           | Json.List stims -> all_some (List.map stimulus_of_json stims)
           | _ -> None)
         seqs)
  | _ -> None

let test_set_hash ts = Store.digest (Json.to_string (test_set_to_json ts))

(* --- patterns ---------------------------------------------------------- *)

let pattern_to_json p =
  Json.Obj
    [
      ("w", Json.Int (Packvec.width p));
      ( "v",
        Json.List (Array.to_list (Array.map (fun w -> Json.Int w) (Packvec.words p)))
      );
    ]

let pattern_of_json j =
  match (field_int j "w", Json.member "v" j) with
  | Some w, Some (Json.List ws) when w >= 1 -> (
    match all_some (List.map (function Json.Int x -> Some x | _ -> None) ws) with
    | Some words when List.length words = Packvec.words_for w ->
      let words = Array.of_list words in
      (* Re-impose the unused-high-bits-zero invariant rather than
         trusting the file. *)
      words.(Array.length words - 1) <-
        words.(Array.length words - 1) land Packvec.last_mask w;
      Some { Packvec.width = w; words }
    | _ -> None)
  | _ -> None

let patterns_of_json = function
  | Json.List ps -> Option.map Array.of_list (all_some (List.map pattern_of_json ps))
  | _ -> None

(* --- fault-simulation reports ------------------------------------------ *)

let fsim_report_to_json (r : Fsim.report) =
  Json.Obj
    [
      ("total", Json.Int r.Fsim.total);
      ("detected", Json.Int r.Fsim.detected);
      ("patterns_applied", Json.Int r.Fsim.patterns_applied);
      ( "detected_at",
        Json.List
          (Array.to_list
             (Array.map
                (fun (d : Fsim.detection) ->
                  match d.Fsim.detected_at with
                  | Some i -> Json.Int i
                  | None -> Json.Null)
                r.Fsim.detections)) );
    ]

let fsim_report_of_json ~faults j =
  match
    ( field_int j "total", field_int j "detected", field_int j "patterns_applied",
      Json.member "detected_at" j )
  with
  | Some total, Some detected, Some patterns_applied, Some (Json.List ats)
    when total = List.length faults && total = List.length ats -> (
    let ats =
      all_some
        (List.map
           (function
             | Json.Int i when i >= 0 -> Some (Some i)
             | Json.Null -> Some None
             | _ -> None)
           ats)
    in
    match ats with
    | Some ats
      when detected = List.length (List.filter Option.is_some ats)
           && detected >= 0 && patterns_applied >= 0 ->
      let detections =
        Array.of_list
          (List.map2 (fun fault detected_at -> { Fsim.fault; detected_at }) faults ats)
      in
      Some { Fsim.total; detected; detections; patterns_applied }
    | _ -> None)
  | _ -> None

(* --- validation outcomes ----------------------------------------------- *)

let outcome_to_json (o : Vectorgen.outcome) =
  Json.Obj
    [
      ("test_set", test_set_to_json o.Vectorgen.test_set);
      ("killed", int_list_to_json o.Vectorgen.killed);
      ("equivalent", int_list_to_json o.Vectorgen.equivalent);
      ("unknown", int_list_to_json o.Vectorgen.unknown);
      ("candidates_tried", Json.Int o.Vectorgen.candidates_tried);
      ("total_vectors", Json.Int o.Vectorgen.total_vectors);
      ( "degraded",
        Json.List (List.map (fun s -> Json.String s) o.Vectorgen.degraded) );
    ]

let outcome_of_json j =
  match
    ( Option.bind (Json.member "test_set" j) test_set_of_json,
      field_ints j "killed", field_ints j "equivalent", field_ints j "unknown",
      field_int j "candidates_tried", field_int j "total_vectors",
      Json.member "degraded" j )
  with
  | ( Some test_set, Some killed, Some equivalent, Some unknown,
      Some candidates_tried, Some total_vectors, Some (Json.List []) ) ->
    Some
      {
        Vectorgen.test_set;
        killed;
        equivalent;
        unknown;
        candidates_tried;
        total_vectors;
        degraded = [];
      }
  | _ -> None

(* --- mutation scores --------------------------------------------------- *)

let score_to_json (s : Score.t) =
  Json.Obj
    [
      ("total", Json.Int s.Score.total);
      ("killed", Json.Int s.Score.killed);
      ("equivalent", Json.Int s.Score.equivalent);
      ("score_percent", Json.Float s.Score.score_percent);
    ]

let score_of_json j =
  match
    ( field_int j "total", field_int j "killed", field_int j "equivalent",
      field_num j "score_percent" )
  with
  | Some total, Some killed, Some equivalent, Some score_percent
    when total >= 0 && killed >= 0 && equivalent >= 0
         && killed + equivalent <= total ->
    Some { Score.total; killed; equivalent; score_percent }
  | _ -> None

(* --- ATPG top-off reports ---------------------------------------------- *)

let topoff_report_to_json (r : Topoff.report) =
  Json.Obj
    [
      ("total_faults", Json.Int r.Topoff.total_faults);
      ("seed_detected", Json.Int r.Topoff.seed_detected);
      ("random_detected", Json.Int r.Topoff.random_detected);
      ("atpg_detected", Json.Int r.Topoff.atpg_detected);
      ("untestable", Json.Int r.Topoff.untestable);
      ("aborted", Json.Int r.Topoff.aborted);
      ("final_coverage_percent", Json.Float r.Topoff.final_coverage_percent);
      ("seed_patterns", Json.Int r.Topoff.seed_patterns);
      ("random_patterns", Json.Int r.Topoff.random_patterns);
      ("atpg_calls", Json.Int r.Topoff.atpg_calls);
      ("atpg_patterns", Json.Int r.Topoff.atpg_patterns);
      ("degraded", Json.Bool r.Topoff.degraded);
      ("degraded_retries", Json.Int r.Topoff.degraded_retries);
      ("degraded_detected", Json.Int r.Topoff.degraded_detected);
      ( "test_set",
        Json.List (Array.to_list (Array.map pattern_to_json r.Topoff.test_set)) );
    ]

let topoff_report_of_json j =
  match
    ( ( field_int j "total_faults", field_int j "seed_detected",
        field_int j "random_detected", field_int j "atpg_detected",
        field_int j "untestable", field_int j "aborted",
        field_num j "final_coverage_percent" ),
      ( field_int j "seed_patterns", field_int j "random_patterns",
        field_int j "atpg_calls", field_int j "atpg_patterns",
        field_bool j "degraded", field_int j "degraded_retries",
        field_int j "degraded_detected",
        Option.bind (Json.member "test_set" j) patterns_of_json ) )
  with
  | ( ( Some total_faults, Some seed_detected, Some random_detected,
        Some atpg_detected, Some untestable, Some aborted,
        Some final_coverage_percent ),
      ( Some seed_patterns, Some random_patterns, Some atpg_calls,
        Some atpg_patterns, Some degraded, Some degraded_retries,
        Some degraded_detected, Some test_set ) )
    when not degraded ->
    Some
      {
        Topoff.total_faults;
        seed_detected;
        random_detected;
        atpg_detected;
        untestable;
        aborted;
        final_coverage_percent;
        seed_patterns;
        random_patterns;
        atpg_calls;
        atpg_patterns;
        degraded;
        degraded_retries;
        degraded_detected;
        test_set;
      }
  | _ -> None
