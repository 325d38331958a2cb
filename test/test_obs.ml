(* Tests for the observability library: spans, metrics, JSON and run
   reports, plus the instrumentation wired into the core pipeline. *)

module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Json = Mutsamp_obs.Json
module Runreport = Mutsamp_obs.Runreport
module Profile = Mutsamp_obs.Profile
module Traceout = Mutsamp_obs.Traceout
module Registry = Mutsamp_circuits.Registry
module Pipeline = Mutsamp_core.Pipeline
module Pattern = Mutsamp_fault.Pattern

(* Every test drives the same process-global collector; start clean and
   leave it disabled for the rest of the suite. *)
let with_clean_obs f () =
  Trace.set_enabled false;
  Trace.reset ();
  Metrics.set_enabled false;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ();
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  Trace.set_enabled true;
  Trace.reset ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "first" (fun () -> ());
      Trace.with_span "second" ~attrs:[ ("k", "v") ] (fun () ->
          Trace.with_span "grandchild" (fun () -> ())));
  match Trace.roots () with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Trace.name;
    Alcotest.(check (list string))
      "children in open order" [ "first"; "second" ]
      (List.map (fun (s : Trace.span) -> s.Trace.name) outer.Trace.children);
    let second = List.nth outer.Trace.children 1 in
    Alcotest.(check (list string))
      "nested child" [ "grandchild" ]
      (List.map (fun (s : Trace.span) -> s.Trace.name) second.Trace.children);
    Alcotest.(check (list (pair string string)))
      "attrs kept" [ ("k", "v") ] second.Trace.attrs;
    Alcotest.(check bool) "durations nest" true
      (List.for_all
         (fun (c : Trace.span) -> c.Trace.duration_s <= outer.Trace.duration_s)
         outer.Trace.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_disabled () =
  (* Disabled collection records nothing and passes values through. *)
  let v = Trace.with_span "ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.roots ()))

let test_span_exception () =
  Trace.set_enabled true;
  Trace.reset ();
  (try Trace.with_span "boom" (fun () -> failwith "expected") with
   | Failure _ -> ());
  match Trace.roots () with
  | [ s ] ->
    Alcotest.(check (list (pair string string)))
      "error attr" [ ("error", "true") ] s.Trace.attrs
  | _ -> Alcotest.fail "span not closed on exception"

let test_span_timed () =
  (* with_span_timed reports elapsed time even while disabled. *)
  let v, dt = Trace.with_span_timed "t" (fun () -> 7) in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.);
  Alcotest.(check int) "still nothing recorded" 0 (List.length (Trace.roots ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let c = Metrics.counter "test.obs.hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  Metrics.add_named "test.obs.named" 4;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "counter total" (Some 5)
    (List.assoc_opt "test.obs.hits" snap.Metrics.counters);
  Alcotest.(check (option int))
    "named counter" (Some 4)
    (List.assoc_opt "test.obs.named" snap.Metrics.counters)

let test_counters_disabled () =
  let c = Metrics.counter "test.obs.cold" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.observe_named "test.obs.cold_hist" 1.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "no count while disabled" None
    (List.assoc_opt "test.obs.cold" snap.Metrics.counters);
  Alcotest.(check bool) "no histogram while disabled" true
    (not (List.mem_assoc "test.obs.cold_hist" snap.Metrics.histograms))

let test_histograms () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.sizes" in
  List.iter (Metrics.observe h) [ 2.; 8.; 5. ];
  let snap = Metrics.snapshot () in
  match List.assoc_opt "test.obs.sizes" snap.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
    Alcotest.(check int) "n" 3 s.Metrics.n;
    Alcotest.(check (float 1e-9)) "sum" 15. s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 2. s.Metrics.min_v;
    Alcotest.(check (float 1e-9)) "max" 8. s.Metrics.max_v

let test_metrics_reset () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let c = Metrics.counter "test.obs.resettable" in
  Metrics.incr c;
  Metrics.reset ();
  Alcotest.(check int) "snapshot empty after reset" 0
    (List.length (Metrics.snapshot ()).Metrics.counters);
  (* The handle survives reset and keeps counting. *)
  Metrics.incr c;
  Alcotest.(check (option int))
    "handle still live" (Some 1)
    (List.assoc_opt "test.obs.resettable" (Metrics.snapshot ()).Metrics.counters)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let golden_json =
  "{\n\
  \  \"b\": true,\n\
  \  \"f\": 1.5,\n\
  \  \"i\": -3,\n\
  \  \"l\": [\n\
  \    1,\n\
  \    \"two\"\n\
  \  ],\n\
  \  \"n\": null,\n\
  \  \"s\": \"a\\\"b\\\\c\"\n\
   }\n"

let golden_value =
  Json.Obj
    [
      ("b", Json.Bool true);
      ("f", Json.Float 1.5);
      ("i", Json.Int (-3));
      ("l", Json.List [ Json.Int 1; Json.String "two" ]);
      ("n", Json.Null);
      ("s", Json.String "a\"b\\c");
    ]

let test_json_golden () =
  (* The printed form is stable — diffs of committed reports stay
     readable. *)
  Alcotest.(check string) "golden output" golden_json (Json.to_string golden_value)

let test_json_roundtrip () =
  match Json.parse (Json.to_string golden_value) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v -> Alcotest.(check bool) "round trip" true (Json.equal golden_value v)

let test_json_float_roundtrip () =
  let vals = [ 0.1; -1e-9; 3.141592653589793; 1e300; 2.0 ] in
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
        Alcotest.(check (float 0.)) (Printf.sprintf "float %h" f) f g
      | Ok _ -> Alcotest.failf "float %h re-parsed as non-float" f
      | Error e -> Alcotest.failf "float %h: %s" f e)
    vals

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* ------------------------------------------------------------------ *)
(* Run reports                                                        *)
(* ------------------------------------------------------------------ *)

let sample_report () =
  Trace.set_enabled true;
  Trace.reset ();
  Metrics.set_enabled true;
  Metrics.reset ();
  Trace.with_span "root" (fun () -> Trace.with_span "child" (fun () -> ()));
  Metrics.add_named "test.obs.report_counter" 2;
  Metrics.observe_named "test.obs.report_hist" 1.0;
  Runreport.make ~command:"test" ~circuits:[ "c17" ] ~seed:7
    ~spans:(Trace.roots ()) ~metrics:(Metrics.snapshot ()) ()

let test_report_validates () =
  match Runreport.validate (sample_report ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report should validate: %s" e

let test_report_roundtrip_validates () =
  let text = Json.to_string (sample_report ()) in
  match Json.parse text with
  | Error e -> Alcotest.failf "report text unparsable: %s" e
  | Ok v ->
    (match Runreport.validate v with
     | Ok () -> ()
     | Error e -> Alcotest.failf "parsed report invalid: %s" e)

let test_report_rejects_bad_schema () =
  let bad =
    Json.Obj
      [
        ("schema", Json.Int 999);
        ("tool", Json.String "mutsamp");
        ("command", Json.String "x");
        ("spans", Json.List []);
        ("metrics", Json.Obj [ ("counters", Json.Obj []); ("histograms", Json.Obj []) ]);
      ]
  in
  match Runreport.validate bad with
  | Ok () -> Alcotest.fail "schema 999 accepted"
  | Error _ -> ()

let test_report_rejects_malformed_span () =
  let bad =
    Json.Obj
      [
        ("schema", Json.Int Runreport.schema_version);
        ("tool", Json.String "mutsamp");
        ("command", Json.String "x");
        ("spans", Json.List [ Json.Obj [ ("name", Json.String "s") ] ]);
        ("metrics", Json.Obj [ ("counters", Json.Obj []); ("histograms", Json.Obj []) ]);
      ]
  in
  match Runreport.validate bad with
  | Ok () -> Alcotest.fail "span without timing accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Profile                                                            *)
(* ------------------------------------------------------------------ *)

let span ?(attrs = []) ?(track = 0) ?(children = []) ~start ~dur ~alloc name =
  {
    Trace.name;
    attrs;
    start_s = start;
    duration_s = dur;
    alloc_words = alloc;
    track;
    children;
  }

let test_profile_aggregation () =
  (* Two "inner" invocations under one root: counts and totals add up,
     root self time excludes child time. *)
  let roots =
    [
      span "root" ~start:0.0 ~dur:10.0 ~alloc:100.0
        ~children:
          [
            span "inner" ~start:1.0 ~dur:3.0 ~alloc:10.0;
            span "inner" ~start:5.0 ~dur:2.0 ~alloc:20.0;
          ];
    ]
  in
  let p = Profile.of_spans roots in
  Alcotest.(check (float 1e-9)) "wall" 10.0 p.Profile.wall_s;
  let row name =
    List.find (fun (r : Profile.row) -> r.Profile.name = name) p.Profile.rows
  in
  let inner = row "inner" in
  Alcotest.(check int) "inner count" 2 inner.Profile.count;
  Alcotest.(check (float 1e-9)) "inner total" 5.0 inner.Profile.total_s;
  Alcotest.(check (float 1e-9)) "inner self" 5.0 inner.Profile.self_s;
  Alcotest.(check (float 1e-9)) "inner alloc" 30.0 inner.Profile.alloc_words;
  let root = row "root" in
  Alcotest.(check (float 1e-9)) "root self excludes children" 5.0
    root.Profile.self_s;
  (* Sorted by self time, descending. *)
  Alcotest.(check (list string))
    "sort order" [ "inner"; "root" ]
    (List.map (fun (r : Profile.row) -> r.Profile.name) p.Profile.rows)

let test_profile_worker_spans_no_self () =
  (* Worker-track spans run concurrently with the coordinator span they
     were grafted under; their duration must not count as self time, so
     self times always sum to <= wall. *)
  let roots =
    [
      span "fsim" ~start:0.0 ~dur:4.0 ~alloc:0.0
        ~children:
          [
            span "shard" ~track:1 ~start:0.1 ~dur:3.9 ~alloc:0.0;
            span "shard" ~track:2 ~start:0.1 ~dur:3.8 ~alloc:0.0;
          ];
    ]
  in
  let p = Profile.of_spans roots in
  let shard =
    List.find (fun (r : Profile.row) -> r.Profile.name = "shard") p.Profile.rows
  in
  Alcotest.(check (float 1e-9)) "worker self is zero" 0.0 shard.Profile.self_s;
  Alcotest.(check (float 1e-9)) "worker total kept" 7.7 shard.Profile.total_s;
  let self_sum =
    List.fold_left (fun a (r : Profile.row) -> a +. r.Profile.self_s) 0.0
      p.Profile.rows
  in
  Alcotest.(check bool) "self sum <= wall" true
    (self_sum <= p.Profile.wall_s +. 1e-9)

let test_profile_self_clamped () =
  (* Clock skew can make children sum past the parent; self time clamps
     at zero rather than going negative. *)
  let roots =
    [
      span "p" ~start:0.0 ~dur:1.0 ~alloc:0.0
        ~children:[ span "c" ~start:0.0 ~dur:1.5 ~alloc:0.0 ];
    ]
  in
  let p = Profile.of_spans roots in
  let row =
    List.find (fun (r : Profile.row) -> r.Profile.name = "p") p.Profile.rows
  in
  Alcotest.(check (float 1e-9)) "clamped at zero" 0.0 row.Profile.self_s

(* ------------------------------------------------------------------ *)
(* Trace-event export                                                 *)
(* ------------------------------------------------------------------ *)

let test_traceout_structure () =
  let roots =
    [
      span "fsim" ~start:0.0 ~dur:0.004 ~alloc:10.0
        ~attrs:[ ("patterns", "64") ]
        ~children:[ span "shard" ~track:1 ~start:0.001 ~dur:0.002 ~alloc:5.0 ];
    ]
  in
  let tracks = [ (0, "main"); (1, "worker-1") ] in
  let json = Traceout.to_json ~tracks roots in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents must be a list"
  in
  let ph e =
    match Json.member "ph" e with Some (Json.String s) -> s | _ -> "?"
  in
  let xs = List.filter (fun e -> ph e = "X") events in
  let ms = List.filter (fun e -> ph e = "M") events in
  Alcotest.(check int) "one X event per span" 2 (List.length xs);
  Alcotest.(check bool) "metadata events present" true (List.length ms >= 3);
  (* The shard event sits on tid 1 with microsecond timestamps. *)
  let shard =
    List.find
      (fun e -> Json.member "name" e = Some (Json.String "shard"))
      xs
  in
  Alcotest.(check bool) "tid is the track" true
    (Json.member "tid" shard = Some (Json.Int 1));
  (match Json.member "ts" shard with
   | Some (Json.Float ts) -> Alcotest.(check (float 1e-6)) "ts in us" 1000.0 ts
   | _ -> Alcotest.fail "ts missing");
  (* thread_name metadata exists for each track. *)
  let thread_names =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.String "thread_name") then
          match Json.member "args" e with
          | Some args ->
            (match Json.member "name" args with
             | Some (Json.String l) -> Some l
             | _ -> None)
          | None -> None
        else None)
      ms
  in
  Alcotest.(check (list string)) "track labels" [ "main"; "worker-1" ] thread_names;
  (* The whole document parses back — it is valid JSON. *)
  match Json.parse (Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace-event JSON unparsable: %s" e

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                              *)
(* ------------------------------------------------------------------ *)

let test_prometheus_exposition () =
  Metrics.set_enabled true;
  Metrics.reset ();
  Metrics.add_named "test.obs.prom_counter" 7;
  Metrics.observe_named "test.obs.prom_hist" 2.0;
  Metrics.observe_named "test.obs.prom_hist" 4.0;
  let text = Metrics.to_prometheus (Metrics.snapshot ()) in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (go 0)
  in
  contains "# TYPE mutsamp_test_obs_prom_counter counter\n";
  contains "mutsamp_test_obs_prom_counter 7\n";
  contains "# TYPE mutsamp_test_obs_prom_hist summary\n";
  contains "mutsamp_test_obs_prom_hist_count 2\n";
  contains "mutsamp_test_obs_prom_hist_sum 6\n";
  contains "mutsamp_test_obs_prom_hist_min 2\n";
  contains "mutsamp_test_obs_prom_hist_max 4\n"

(* ------------------------------------------------------------------ *)
(* Profile / exec report sections                                     *)
(* ------------------------------------------------------------------ *)

let profile_section_json () =
  Profile.to_json
    (Profile.of_spans
       [
         span "root" ~start:0.0 ~dur:1.0 ~alloc:8.0
           ~children:[ span "c" ~track:1 ~start:0.1 ~dur:0.5 ~alloc:2.0 ];
       ])

let exec_section_json () =
  Json.Obj
    [
      ("jobs_requested", Json.Int 4);
      ("jobs", Json.Int 4);
      ( "histograms",
        Json.Obj
          [
            ( "exec.shard_seconds",
              Json.Obj
                [
                  ("n", Json.Int 4);
                  ("sum", Json.Float 0.02);
                  ("min", Json.Float 0.004);
                  ("max", Json.Float 0.006);
                ] );
          ] );
    ]

let test_report_accepts_profile_and_exec () =
  let report =
    Runreport.make ~command:"test"
      ~extra:
        [ ("profile", profile_section_json ()); ("exec", exec_section_json ()) ]
      ~spans:[] ~metrics:(Metrics.snapshot ()) ()
  in
  (match Runreport.validate report with
   | Ok () -> ()
   | Error e -> Alcotest.failf "profile+exec report should validate: %s" e);
  (* And survives a print/parse round trip. *)
  (match Json.parse (Json.to_string report) with
   | Error e -> Alcotest.failf "unparsable: %s" e
   | Ok v ->
     (match Runreport.validate v with
      | Ok () -> ()
      | Error e -> Alcotest.failf "round-tripped report invalid: %s" e));
  (* The section the CLI and the daemon actually emit carries the host
     context a jobs-N number is read against. *)
  let live = Mutsamp_serve.Jobs.exec_section ~jobs_requested:2 ~jobs:2 in
  (match Json.member "cores" live with
   | Some (Json.Int n) -> Alcotest.(check bool) "cores >= 1" true (n >= 1)
   | _ -> Alcotest.fail "exec.cores missing");
  (match Json.member "ocaml" live with
   | Some (Json.String v) -> Alcotest.(check string) "ocaml" Sys.ocaml_version v
   | _ -> Alcotest.fail "exec.ocaml missing");
  match
    Runreport.validate
      (Runreport.make ~command:"test" ~extra:[ ("exec", live) ] ~spans:[]
         ~metrics:(Metrics.snapshot ()) ())
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live exec section invalid: %s" e

let test_report_rejects_malformed_profile_row () =
  let bad_profile =
    Json.Obj
      [
        ("wall_s", Json.Float 1.0);
        ( "rows",
          Json.List
            [ Json.Obj [ ("name", Json.String "x"); ("count", Json.String "2") ] ]
        );
      ]
  in
  let report =
    Runreport.make ~command:"test" ~extra:[ ("profile", bad_profile) ] ~spans:[]
      ~metrics:(Metrics.snapshot ()) ()
  in
  match Runreport.validate report with
  | Ok () -> Alcotest.fail "malformed profile row accepted"
  | Error _ -> ()

let test_report_rejects_malformed_exec () =
  let bad_exec =
    Json.Obj
      [
        ("jobs", Json.String "four");
      ]
  in
  let report =
    Runreport.make ~command:"test" ~extra:[ ("exec", bad_exec) ] ~spans:[]
      ~metrics:(Metrics.snapshot ()) ()
  in
  (match Runreport.validate report with
   | Ok () -> Alcotest.fail "non-integer exec.jobs accepted"
   | Error _ -> ());
  List.iter
    (fun (name, v) ->
      match
        Runreport.validate
          (Runreport.make ~command:"test" ~extra:[ ("exec", Json.Obj [ (name, v) ]) ]
             ~spans:[] ~metrics:(Metrics.snapshot ()) ())
      with
      | Ok () -> Alcotest.failf "malformed exec.%s accepted" name
      | Error _ -> ())
    [ ("cores", Json.String "2"); ("ocaml", Json.Int 5) ]

let test_report_span_track_field () =
  (* Spans may carry an integer track; anything else is rejected. *)
  let base track =
    Json.Obj
      [
        ("schema", Json.Int Runreport.schema_version);
        ("tool", Json.String "mutsamp");
        ("command", Json.String "x");
        ( "spans",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "s");
                  ("start_s", Json.Float 0.0);
                  ("duration_s", Json.Float 1.0);
                  ("alloc_words", Json.Float 0.0);
                  ("track", track);
                ];
            ] );
        ("metrics", Json.Obj [ ("counters", Json.Obj []); ("histograms", Json.Obj []) ]);
      ]
  in
  (match Runreport.validate (base (Json.Int 2)) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "integer track rejected: %s" e);
  match Runreport.validate (base (Json.String "two")) with
  | Ok () -> Alcotest.fail "string track accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Pipeline instrumentation                                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_prepare_spans () =
  Trace.set_enabled true;
  Trace.reset ();
  let e = Option.get (Registry.find "c17") in
  let (_ : Pipeline.t) = Pipeline.prepare (e.Registry.design ()) in
  match Trace.roots () with
  | [ prepare ] ->
    Alcotest.(check string) "root" "prepare" prepare.Trace.name;
    Alcotest.(check (list string))
      "phases" [ "synth"; "collapse"; "mutants" ]
      (List.map (fun (s : Trace.span) -> s.Trace.name) prepare.Trace.children);
    Alcotest.(check bool) "fault count attr" true
      (List.mem_assoc "faults" prepare.Trace.attrs)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* The atpg command runs under a root span named after it; Topoff's own
   span must not share that name, or the profile counts it twice. *)
let test_atpg_command_span_once () =
  Trace.set_enabled true;
  Trace.reset ();
  let (_ : string) =
    Trace.with_span "atpg" (fun () ->
        Mutsamp_serve.Jobs.atpg ~ctx:Mutsamp_exec.Ctx.default ~circuit:"c17"
          ~generator:"podem" ~seed:1)
  in
  let count name =
    match
      List.find_opt
        (fun (r : Profile.row) -> r.Profile.name = name)
        (Profile.of_spans (Trace.roots ())).Profile.rows
    with
    | Some r -> r.Profile.count
    | None -> 0
  in
  Alcotest.(check int) "atpg spans" 1 (count "atpg");
  Alcotest.(check int) "topoff spans" 1 (count "topoff")

let test_pipeline_fsim_counters () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let e = Option.get (Registry.find "c17") in
  let p = Pipeline.prepare (e.Registry.design ()) in
  let r =
    Pipeline.fault_simulate p
      (Array.map (Pattern.of_code ~inputs:(Pattern.num_inputs p.Pipeline.netlist))
         [| 0b01010; 0b11111; 0b00000; 0b10101 |])
  in
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "patterns counted" (Some 4)
    (List.assoc_opt "fsim.patterns_simulated" snap.Metrics.counters);
  Alcotest.(check (option int))
    "detections counted" (Some r.Mutsamp_fault.Fsim.detected)
    (List.assoc_opt "fsim.faults_detected" snap.Metrics.counters)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting" `Quick (with_clean_obs test_span_nesting);
        Alcotest.test_case "span disabled" `Quick (with_clean_obs test_span_disabled);
        Alcotest.test_case "span exception" `Quick (with_clean_obs test_span_exception);
        Alcotest.test_case "span timed" `Quick (with_clean_obs test_span_timed);
        Alcotest.test_case "counters" `Quick (with_clean_obs test_counters);
        Alcotest.test_case "counters disabled" `Quick
          (with_clean_obs test_counters_disabled);
        Alcotest.test_case "histograms" `Quick (with_clean_obs test_histograms);
        Alcotest.test_case "metrics reset" `Quick (with_clean_obs test_metrics_reset);
        Alcotest.test_case "json golden" `Quick test_json_golden;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json float roundtrip" `Quick test_json_float_roundtrip;
        Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "report validates" `Quick
          (with_clean_obs test_report_validates);
        Alcotest.test_case "report roundtrip validates" `Quick
          (with_clean_obs test_report_roundtrip_validates);
        Alcotest.test_case "report rejects bad schema" `Quick
          test_report_rejects_bad_schema;
        Alcotest.test_case "report rejects malformed span" `Quick
          test_report_rejects_malformed_span;
        Alcotest.test_case "profile aggregation" `Quick test_profile_aggregation;
        Alcotest.test_case "profile worker spans no self" `Quick
          test_profile_worker_spans_no_self;
        Alcotest.test_case "profile self clamped" `Quick test_profile_self_clamped;
        Alcotest.test_case "traceout structure" `Quick test_traceout_structure;
        Alcotest.test_case "prometheus exposition" `Quick
          (with_clean_obs test_prometheus_exposition);
        Alcotest.test_case "report accepts profile and exec" `Quick
          (with_clean_obs test_report_accepts_profile_and_exec);
        Alcotest.test_case "report rejects malformed profile row" `Quick
          (with_clean_obs test_report_rejects_malformed_profile_row);
        Alcotest.test_case "report rejects malformed exec" `Quick
          (with_clean_obs test_report_rejects_malformed_exec);
        Alcotest.test_case "report span track field" `Quick
          test_report_span_track_field;
        Alcotest.test_case "pipeline prepare spans" `Quick
          (with_clean_obs test_pipeline_prepare_spans);
        Alcotest.test_case "pipeline fsim counters" `Quick
          (with_clean_obs test_pipeline_fsim_counters);
        Alcotest.test_case "atpg command span once" `Quick
          (with_clean_obs test_atpg_command_span_once);
      ] );
  ]
