let schema_version = 1
let tool_version = "1.0.0"

let make ~command ?(circuits = []) ?config ?seed ?(extra = []) ~spans
    ~(metrics : Metrics.snapshot) () =
  Json.Obj
    ([
       ("schema", Json.Int schema_version);
       ("tool", Json.String "mutsamp");
       ("version", Json.String tool_version);
       ("command", Json.String command);
       ("circuits", Json.List (List.map (fun c -> Json.String c) circuits));
       ("seed", match seed with Some s -> Json.Int s | None -> Json.Null);
       ("config", match config with Some c -> c | None -> Json.Null);
       ("spans", Trace.to_json spans);
       ("metrics", Metrics.to_json metrics);
     ]
    @ extra)

(* Atomic: a crash mid-write must not leave a truncated report where a
   previous good one stood. Inlined temp+rename rather than
   Mutsamp_robust.Atomicio — obs sits below robust in the library
   stack. *)
let write_file path json =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (Json.to_string json))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let expect_string name = function
  | Json.String _ -> Ok ()
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let expect_number name = function
  | Json.Int _ | Json.Float _ -> Ok ()
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let rec validate_span path json =
  match json with
  | Json.Obj _ ->
    let* name = field "name" json in
    let* () = expect_string (path ^ ".name") name in
    let* dur = field "duration_s" json in
    let* () = expect_number (path ^ ".duration_s") dur in
    let* start = field "start_s" json in
    let* () = expect_number (path ^ ".start_s") start in
    let* alloc = field "alloc_words" json in
    let* () = expect_number (path ^ ".alloc_words") alloc in
    let* () =
      match Json.member "track" json with
      | Some (Json.Int _) | None -> Ok ()
      | Some _ -> Error (path ^ ".track must be an integer")
    in
    let* () =
      match Json.member "attrs" json with
      | None -> Ok ()
      | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* () = acc in
            expect_string (path ^ ".attrs." ^ k) v)
          (Ok ()) fields
      | Some _ -> Error (path ^ ".attrs must be an object")
    in
    (match Json.member "children" json with
     | None -> Ok ()
     | Some (Json.List children) ->
       List.fold_left
         (fun acc (i, c) ->
           let* () = acc in
           validate_span (Printf.sprintf "%s.children[%d]" path i) c)
         (Ok ())
         (List.mapi (fun i c -> (i, c)) children)
     | Some _ -> Error (path ^ ".children must be a list"))
  | _ -> Error (path ^ " must be an object")

let validate_metrics json =
  match json with
  | Json.Obj _ ->
    let* counters = field "counters" json in
    let* () =
      match counters with
      | Json.Obj fields ->
        List.fold_left
          (fun acc (k, v) ->
            let* () = acc in
            match v with
            | Json.Int _ -> Ok ()
            | _ -> Error (Printf.sprintf "counter %S must be an integer" k))
          (Ok ()) fields
      | _ -> Error "metrics.counters must be an object"
    in
    let* histograms = field "histograms" json in
    (match histograms with
     | Json.Obj fields ->
       List.fold_left
         (fun acc (k, v) ->
           let* () = acc in
           match v with
           | Json.Obj _ ->
             let* n = field "n" v in
             let* () = expect_number ("histogram " ^ k ^ ".n") n in
             let* sum = field "sum" v in
             expect_number ("histogram " ^ k ^ ".sum") sum
           | _ -> Error (Printf.sprintf "histogram %S must be an object" k))
         (Ok ()) fields
     | _ -> Error "metrics.histograms must be an object")
  | _ -> Error "metrics must be an object"

(* The optional "analysis" section (static-analysis findings). Absent
   in reports from commands that run no analysis — validation is
   additive so old reports stay valid. *)
let validate_diag path json =
  match json with
  | Json.Obj _ ->
    let* () =
      List.fold_left
        (fun acc name ->
          let* () = acc in
          let* v = field name json in
          expect_string (path ^ "." ^ name) v)
        (Ok ())
        [ "id"; "circuit"; "loc"; "message" ]
    in
    let* sev = field "severity" json in
    let* () =
      match sev with
      | Json.String ("error" | "warning" | "info") -> Ok ()
      | Json.String s -> Error (Printf.sprintf "%s.severity: unknown severity %S" path s)
      | _ -> Error (path ^ ".severity must be a string")
    in
    (match Json.member "waived" json with
     | Some (Json.Bool _) | None -> Ok ()
     | Some _ -> Error (path ^ ".waived must be a boolean"))
  | _ -> Error (path ^ " must be an object")

let validate_analysis json =
  match json with
  | Json.Obj _ ->
    let* () =
      List.fold_left
        (fun acc name ->
          let* () = acc in
          let* v = field name json in
          match v with
          | Json.Int _ -> Ok ()
          | _ -> Error (Printf.sprintf "analysis.%s must be an integer" name))
        (Ok ())
        [ "findings"; "errors"; "warnings"; "infos"; "waived" ]
    in
    let* rules = field "rules" json in
    let* () =
      match rules with
      | Json.Obj fields ->
        List.fold_left
          (fun acc (k, v) ->
            let* () = acc in
            match v with
            | Json.Int _ -> Ok ()
            | _ -> Error (Printf.sprintf "analysis.rules.%s must be an integer" k))
          (Ok ()) fields
      | _ -> Error "analysis.rules must be an object"
    in
    let* diags = field "diagnostics" json in
    (match diags with
     | Json.List items ->
       List.fold_left
         (fun acc (i, d) ->
           let* () = acc in
           validate_diag (Printf.sprintf "analysis.diagnostics[%d]" i) d)
         (Ok ())
         (List.mapi (fun i d -> (i, d)) items)
     | _ -> Error "analysis.diagnostics must be a list")
  | _ -> Error "field \"analysis\" must be an object"

(* The optional "profile" section: flat self-time rows aggregated by
   span name (the [--profile] flag). *)
let validate_profile_row path json =
  match json with
  | Json.Obj _ ->
    let* name = field "name" json in
    let* () = expect_string (path ^ ".name") name in
    let* count = field "count" json in
    let* () =
      match count with
      | Json.Int _ -> Ok ()
      | _ -> Error (path ^ ".count must be an integer")
    in
    List.fold_left
      (fun acc fname ->
        let* () = acc in
        let* v = field fname json in
        expect_number (path ^ "." ^ fname) v)
      (Ok ())
      [ "total_s"; "self_s"; "alloc_words" ]
  | _ -> Error (path ^ " must be an object")

let validate_profile json =
  match json with
  | Json.Obj _ ->
    let* wall = field "wall_s" json in
    let* () = expect_number "profile.wall_s" wall in
    let* rows = field "rows" json in
    (match rows with
     | Json.List items ->
       List.fold_left
         (fun acc (i, r) ->
           let* () = acc in
           validate_profile_row (Printf.sprintf "profile.rows[%d]" i) r)
         (Ok ())
         (List.mapi (fun i r -> (i, r)) items)
     | _ -> Error "profile.rows must be a list")
  | _ -> Error "field \"profile\" must be an object"

(* The optional "exec" section: jobs requested and used, the host's
   core count and OCaml version, plus per-run execution histograms
   (shard imbalance, pool queue-wait). *)
let validate_exec json =
  match json with
  | Json.Obj _ ->
    let* () =
      List.fold_left
        (fun acc name ->
          let* () = acc in
          match Json.member name json with
          | Some (Json.Int _) | None -> Ok ()
          | Some _ -> Error (Printf.sprintf "exec.%s must be an integer" name))
        (Ok ())
        [ "jobs"; "jobs_requested"; "cores" ]
    in
    let* () =
      match Json.member "ocaml" json with
      | Some (Json.String _) | None -> Ok ()
      | Some _ -> Error "exec.ocaml must be a string"
    in
    (match Json.member "histograms" json with
     | None -> Ok ()
     | Some (Json.Obj fields) ->
       List.fold_left
         (fun acc (k, v) ->
           let* () = acc in
           match v with
           | Json.Obj _ ->
             let* n = field "n" v in
             let* () = expect_number ("exec.histograms." ^ k ^ ".n") n in
             let* sum = field "sum" v in
             expect_number ("exec.histograms." ^ k ^ ".sum") sum
           | _ -> Error (Printf.sprintf "exec.histograms.%s must be an object" k))
         (Ok ()) fields
     | Some _ -> Error "exec.histograms must be an object")
  | _ -> Error "field \"exec\" must be an object"

(* The optional "store" section: whether a campaign store was attached
   (and where), plus the flat store.* counters (hits, misses, puts,
   ...). Counter names are not pinned here — the set may grow — but
   every non-"enabled"/"dir" field must be an integer count. *)
let validate_store json =
  match json with
  | Json.Obj fields ->
    let* enabled = field "enabled" json in
    let* () =
      match enabled with
      | Json.Bool _ -> Ok ()
      | _ -> Error "store.enabled must be a boolean"
    in
    List.fold_left
      (fun acc (k, v) ->
        let* () = acc in
        match (k, v) with
        | "enabled", _ -> Ok ()
        | "dir", Json.String _ -> Ok ()
        | "dir", _ -> Error "store.dir must be a string"
        | _, Json.Int _ -> Ok ()
        | _, _ -> Error (Printf.sprintf "store.%s must be an integer" k))
      (Ok ()) fields
  | _ -> Error "field \"store\" must be an object"

(* The optional "serve" section: per-request service-daemon context
   (request id, op, queueing) plus the flat serve.* counters. Lenient
   like the store section — the field set may grow — but every member
   must be a scalar, never a nested structure. *)
let validate_serve json =
  match json with
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        let* () = acc in
        match v with
        | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ | Json.Null ->
          Ok ()
        | _ -> Error (Printf.sprintf "serve.%s must be a scalar" k))
      (Ok ()) fields
  | _ -> Error "field \"serve\" must be an object"

let validate json =
  match json with
  | Json.Obj _ ->
    let* schema = field "schema" json in
    let* () =
      match schema with
      | Json.Int v when v = schema_version -> Ok ()
      | Json.Int v ->
        Error (Printf.sprintf "unsupported schema version %d (expected %d)" v schema_version)
      | _ -> Error "field \"schema\" must be an integer"
    in
    let* tool = field "tool" json in
    let* () =
      match tool with
      | Json.String "mutsamp" -> Ok ()
      | Json.String other -> Error (Printf.sprintf "unexpected tool %S" other)
      | _ -> Error "field \"tool\" must be a string"
    in
    let* command = field "command" json in
    let* () = expect_string "command" command in
    let* () =
      match Json.member "seed" json with
      | Some (Json.Int _ | Json.Null) | None -> Ok ()
      | Some _ -> Error "field \"seed\" must be an integer or null"
    in
    let* spans = field "spans" json in
    let* () =
      match spans with
      | Json.List items ->
        List.fold_left
          (fun acc (i, s) ->
            let* () = acc in
            validate_span (Printf.sprintf "spans[%d]" i) s)
          (Ok ())
          (List.mapi (fun i s -> (i, s)) items)
      | _ -> Error "field \"spans\" must be a list"
    in
    let* metrics = field "metrics" json in
    let* () = validate_metrics metrics in
    let* () =
      match Json.member "analysis" json with
      | None -> Ok ()
      | Some a -> validate_analysis a
    in
    let* () =
      match Json.member "profile" json with
      | None -> Ok ()
      | Some p -> validate_profile p
    in
    let* () =
      match Json.member "exec" json with
      | None -> Ok ()
      | Some e -> validate_exec e
    in
    let* () =
      match Json.member "store" json with
      | None -> Ok ()
      | Some s -> validate_store s
    in
    (match Json.member "serve" json with
     | None -> Ok ()
     | Some s -> validate_serve s)
  | _ -> Error "report must be a JSON object"

let validate_file path =
  let* json = Json.parse_file path in
  validate json
