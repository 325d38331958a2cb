(* Tests for lib/serve: the bounded load-shedding queue, the wire
   protocol, and the daemon end-to-end over a real Unix socket —
   request-level fault isolation (malformed payloads, chaos-injected
   worker crashes, overload) always lands a typed reply, warm-store
   requests replay without fault-simulation work, and drain finishes
   in-flight jobs (or budget-cancels them past the grace period) and
   returns. *)

module Bq = Mutsamp_serve.Bq
module Protocol = Mutsamp_serve.Protocol
module Jobs = Mutsamp_serve.Jobs
module Server = Mutsamp_serve.Server
module Client = Mutsamp_serve.Client
module Json = Mutsamp_obs.Json
module Trace = Mutsamp_obs.Trace
module Metrics = Mutsamp_obs.Metrics
module Runreport = Mutsamp_obs.Runreport
module Rerror = Mutsamp_robust.Error
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Budget = Mutsamp_robust.Budget
module Store = Mutsamp_store.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The daemon mutates process-global observability state per request;
   leave everything clean for the rest of the suite. *)
let clean f () =
  Fun.protect
    ~finally:(fun () ->
      Chaos.disarm_all ();
      Degrade.reset ();
      Store.reset_counters ();
      Metrics.reset ();
      Metrics.set_enabled false;
      Budget.set_ambient Budget.unlimited)
    f

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                      *)
(* ------------------------------------------------------------------ *)

let test_bq_sheds_when_full () =
  let q = Bq.create ~capacity:2 in
  check_bool "push 1" true (Bq.try_push q 1);
  check_bool "push 2" true (Bq.try_push q 2);
  check_bool "push 3 shed" false (Bq.try_push q 3);
  check_int "depth" 2 (Bq.depth q);
  check_int "pop 1" 1 (Option.get (Bq.pop q));
  check_bool "slot freed" true (Bq.try_push q 4);
  check_int "pop 2" 2 (Option.get (Bq.pop q));
  check_int "pop 4" 4 (Option.get (Bq.pop q))

let test_bq_close_drains () =
  let q = Bq.create ~capacity:4 in
  ignore (Bq.try_push q "a");
  ignore (Bq.try_push q "b");
  Bq.close q;
  check_bool "push after close shed" false (Bq.try_push q "c");
  check_string "drains a" "a" (Option.get (Bq.pop q));
  check_string "drains b" "b" (Option.get (Bq.pop q));
  check_bool "then None" true (Bq.pop q = None);
  check_bool "closed" true (Bq.closed q)

let test_bq_blocking_pop () =
  let q = Bq.create ~capacity:1 in
  let got = ref None in
  let consumer = Thread.create (fun () -> got := Bq.pop q) () in
  Thread.delay 0.05;
  ignore (Bq.try_push q 42);
  Thread.join consumer;
  check_int "blocked pop woke up" 42 (Option.get !got)

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse_ok () =
  (match
     Protocol.parse_request
       {|{"op":"faultsim","circuit":"c17","vectors":64,"id":"r1","deadline_ms":500,"chaos":["fsim:exn"]}|}
   with
   | Ok
       {
         id;
         op = Protocol.Faultsim { circuit; vectors; lfsr; seed };
         deadline_ms;
         chaos;
       } ->
     check_string "id" "r1" id;
     check_string "circuit" "c17" circuit;
     check_int "vectors" 64 vectors;
     check_bool "lfsr default" false lfsr;
     check_int "seed default" 2005 seed;
     check_int "deadline" 500 (Option.get deadline_ms);
     Alcotest.(check (list string)) "chaos" [ "fsim:exn" ] chaos
   | Ok _ -> Alcotest.fail "wrong op"
   | Error e -> Alcotest.failf "parse failed: %s" (Rerror.to_string e));
  match Protocol.parse_request {|{"op":"health"}|} with
  | Ok { op = Protocol.Health; id = ""; _ } -> ()
  | _ -> Alcotest.fail "health parse"

let test_protocol_parse_errors () =
  let is_protocol line =
    match Protocol.parse_request line with
    | Error (Rerror.Protocol _) -> ()
    | Error e -> Alcotest.failf "wrong class: %s" (Rerror.class_name e)
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  is_protocol {|{"op":|};
  is_protocol {|[1,2]|};
  is_protocol {|{"op":"warp"}|};
  is_protocol {|{"op":"faultsim"}|};
  is_protocol {|{"op":"faultsim","circuit":7}|};
  is_protocol {|{"op":"faultsim","circuit":"c17","vectors":0}|};
  is_protocol {|{"op":"atpg","circuit":"c17","generator":"quantum"}|};
  is_protocol {|{"op":"table2","repetitions":0}|};
  is_protocol {|{"op":"sleep","ms":-1}|}

let test_protocol_reply_roundtrip () =
  let ok =
    Protocol.ok_reply ~id:"a" ~op:"faultsim" ~report:(Json.Obj [])
      ~output:"text\n" ()
  in
  (match Protocol.parse_reply (Json.to_compact ok) with
   | Ok (Protocol.Ok_reply { id = "a"; op = "faultsim"; output = "text\n"; report = Some _ }) -> ()
   | _ -> Alcotest.fail "ok roundtrip");
  let err = Protocol.error_reply ~id:"b" (Rerror.Overloaded "queue full") in
  match Protocol.parse_reply (Json.to_compact err) with
  | Ok (Protocol.Error_reply { id = "b"; class_ = "overloaded"; exit_code = 69; _ }) -> ()
  | _ -> Alcotest.fail "error roundtrip"

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Unix socket paths are length-limited (~108 bytes), so make the
   temp directory directly under the system temp root. *)
let with_socket_dir f =
  let dir = Filename.temp_file "mutsamp_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Start a daemon, run [f] against it, then drain and join. *)
let with_server ?(queue_depth = 4) ?(drain_grace_ms = 400) ?store ?chaos_specs
    dir f =
  let listen = Server.Unix_path (Filename.concat dir "d.sock") in
  let cfg =
    Server.config ~queue_depth ~drain_grace_ms ~idle_timeout_ms:10_000 ?store
      ?chaos_specs listen
  in
  match Server.create cfg with
  | Error e -> Alcotest.failf "server create: %s" (Rerror.to_string e)
  | Ok t ->
    let server = Thread.create Server.run t in
    Fun.protect
      ~finally:(fun () ->
        Server.initiate_drain t;
        Thread.join server)
      (fun () -> f (t, listen))

let connect listen =
  match Client.connect listen with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Rerror.to_string e)

let roundtrip conn json =
  match Client.request ~timeout_ms:30_000 conn json with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request: %s" (Rerror.to_string e)

let req fields = Json.Obj (("op", Json.String (fst fields)) :: snd fields)

let test_serve_fault_isolation () =
  with_socket_dir @@ fun dir ->
  with_server dir @@ fun (_t, listen) ->
  let conn = connect listen in
  Fun.protect ~finally:(fun () -> Client.close conn)
  @@ fun () ->
  (* Malformed payload: typed protocol reply, connection stays up. *)
  (match Client.request_line ~timeout_ms:30_000 conn {|{"op":|} with
   | Ok line -> (
     match Protocol.parse_reply line with
     | Ok (Protocol.Error_reply { class_ = "protocol"; exit_code = 79; _ }) -> ()
     | _ -> Alcotest.failf "unexpected reply %s" line)
   | Error e -> Alcotest.failf "no reply to malformed line: %s" (Rerror.to_string e));
  (* Chaos-injected worker fault: typed injected reply (78). *)
  (match
     roundtrip conn
       (req
          ( "faultsim",
            [
              ("circuit", Json.String "c17");
              ("vectors", Json.Int 64);
              ("id", Json.String "boom");
              ("chaos", Json.List [ Json.String "fsim:exn" ]);
            ] ))
   with
   | Protocol.Error_reply { id = "boom"; class_ = "injected"; exit_code = 78; _ } -> ()
   | _ -> Alcotest.fail "expected an injected error reply");
  (* The same daemon then serves a healthy request, bit-identical to
     the shared job body (= the batch CLI output), with a schema-valid
     report carrying serve.* context. *)
  match
    roundtrip conn
      (req
         ( "faultsim",
           [
             ("circuit", Json.String "c17");
             ("vectors", Json.Int 64);
             ("id", Json.String "ok1");
           ] ))
  with
  | Protocol.Ok_reply { id = "ok1"; output; report = Some report; _ } ->
    let expected =
      Jobs.faultsim ~ctx:Mutsamp_exec.Ctx.default ~circuit:"c17" ~vectors:64
        ~lfsr:false ~seed:2005
    in
    check_string "output matches the batch body byte-for-byte" expected output;
    (match Runreport.validate report with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "reply report invalid: %s" msg);
    (match Json.member "serve" report with
     | Some (Json.Obj fields) ->
       check_bool "serve.requests present" true
         (List.mem_assoc "requests" fields)
     | _ -> Alcotest.fail "no serve section in reply report")
  | _ -> Alcotest.fail "expected a healthy ok reply"

(* The report sections a served request shares with the CLI: "fsim"
   names the backend that ran (compiled without flip-flops, packed
   with), and "exec" carries the host context. *)
let test_serve_report_sections () =
  with_socket_dir @@ fun dir ->
  with_server dir @@ fun (_t, listen) ->
  let conn = connect listen in
  Fun.protect ~finally:(fun () -> Client.close conn)
  @@ fun () ->
  List.iter
    (fun (circuit, backend) ->
      match
        roundtrip conn
          (req ("faultsim", [ ("circuit", Json.String circuit); ("vectors", Json.Int 32) ]))
      with
      | Protocol.Ok_reply { report = Some report; _ } ->
        (match Json.member "fsim" report with
         | Some fsim ->
           check_bool
             (Printf.sprintf "%s: fsim.resolved = [%s]" circuit backend)
             true
             (Json.member "resolved" fsim = Some (Json.List [ Json.String backend ]))
         | None -> Alcotest.failf "%s: no fsim section" circuit);
        (match Json.member "exec" report with
         | Some exec ->
           check_bool "exec.cores" true (Json.member "cores" exec <> None);
           check_bool "exec.ocaml" true
             (Json.member "ocaml" exec = Some (Json.String Sys.ocaml_version))
         | None -> Alcotest.failf "%s: no exec section" circuit);
        (match Runreport.validate report with
         | Ok () -> ()
         | Error msg -> Alcotest.failf "%s: reply report invalid: %s" circuit msg)
      | _ -> Alcotest.failf "%s: expected an ok reply with a report" circuit)
    [ ("c17", "compiled"); ("b01", "packed") ]

let test_serve_overload_and_health () =
  with_socket_dir @@ fun dir ->
  with_server ~queue_depth:1 dir @@ fun (_t, listen) ->
  (* Fill the worker (sleep) and the depth-1 queue, then burst more
     sleeps: they must shed with typed overloaded replies while health
     keeps answering inline. *)
  let results = Array.make 4 None in
  let send i =
    Thread.create
      (fun () ->
        let conn = connect listen in
        Fun.protect ~finally:(fun () -> Client.close conn)
        @@ fun () ->
        results.(i) <-
          Some
            (roundtrip conn
               (req
                  ( "sleep",
                    [ ("ms", Json.Int 600); ("id", Json.String (string_of_int i)) ] ))))
      ()
  in
  let first = send 0 in
  (* Deterministic setup: poll the inline stats op until the worker has
     popped the first sleep (queue back to depth 0) before bursting. *)
  let stats_conn = connect listen in
  let picked_up () =
    match roundtrip stats_conn (req ("stats", [])) with
    | Protocol.Ok_reply { output; _ } -> (
      match Json.parse output with
      | Ok doc -> (
        match (Json.member "queue_depth" doc, Json.member "requests" doc) with
        | Some (Json.Int 0), Some (Json.Int r) -> r >= 2
        | _ -> false)
      | Error _ -> Alcotest.fail "stats output is not JSON")
    | _ -> Alcotest.fail "stats must answer inline"
  in
  (* Two consecutive confirmations rule out the instant between the
     sleep's admission and the worker's pop. *)
  let rec await_pickup tries confirmed =
    if tries = 0 then Alcotest.fail "worker never picked up the first sleep";
    if picked_up () then
      if confirmed then ()
      else begin
        Thread.delay 0.02;
        await_pickup (tries - 1) true
      end
    else begin
      Thread.delay 0.01;
      await_pickup (tries - 1) false
    end
  in
  await_pickup 200 false;
  let rest = [ send 1; send 2; send 3 ] in
  Thread.delay 0.1;
  (match roundtrip stats_conn (req ("health", [ ("id", Json.String "h") ])) with
   | Protocol.Ok_reply { id = "h"; output = "ok\n"; _ } -> ()
   | _ -> Alcotest.fail "health must answer during overload");
  Client.close stats_conn;
  Thread.join first;
  List.iter Thread.join rest;
  let ok, overloaded =
    Array.fold_left
      (fun (ok, ov) r ->
        match r with
        | Some (Protocol.Ok_reply _) -> (ok + 1, ov)
        | Some (Protocol.Error_reply { class_ = "overloaded"; exit_code = 69; _ }) ->
          (ok, ov + 1)
        | Some _ -> Alcotest.fail "unexpected reply class"
        | None -> Alcotest.fail "sender thread got no reply")
      (0, 0) results
  in
  (* Worker slot + queue slot succeed; the rest of the burst is shed.
     Scheduling decides which senders win, not how many. *)
  check_int "exactly two sleeps ran" 2 ok;
  check_int "the rest shed immediately" 2 overloaded

let test_serve_drain_cancels_inflight () =
  with_socket_dir @@ fun dir ->
  let listen = Server.Unix_path (Filename.concat dir "d.sock") in
  let cfg = Server.config ~queue_depth:2 ~drain_grace_ms:150 listen in
  let t =
    match Server.create cfg with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" (Rerror.to_string e)
  in
  let server = Thread.create Server.run t in
  let conn = connect listen in
  let reply = ref None in
  let sender =
    Thread.create
      (fun () ->
        reply :=
          Some
            (roundtrip conn
               (req ("sleep", [ ("ms", Json.Int 30_000); ("id", Json.String "long") ]))))
      ()
  in
  Thread.delay 0.15;
  (* Drain with a 30 s job in flight: the grace period lapses, the
     watchdog expires the request budget, and the sleep loop's next
     poll lands a typed timeout in the client's reply. *)
  Server.initiate_drain t;
  Thread.join server;
  Thread.join sender;
  Client.close conn;
  (match !reply with
   | Some (Protocol.Error_reply { id = "long"; class_ = "timeout"; exit_code = 75; _ }) -> ()
   | Some _ -> Alcotest.fail "expected the drain to cancel the sleep"
   | None -> Alcotest.fail "no reply before drain completed");
  (* Late connections are refused (socket gone) — drain really stopped
     the daemon. *)
  match Client.connect ~policy:(Client.Retry.policy ~max_attempts:1 ()) listen with
  | Error _ -> ()
  | Ok c ->
    Client.close c;
    Alcotest.fail "socket must be closed after drain"

let test_serve_warm_store_replay () =
  with_socket_dir @@ fun dir ->
  let store_dir = Filename.concat dir "store" in
  let store =
    match Store.open_dir store_dir with
    | Ok s -> s
    | Error e -> Alcotest.failf "store: %s" (Rerror.to_string e)
  in
  with_server ~store dir @@ fun (_t, listen) ->
  let conn = connect listen in
  Fun.protect ~finally:(fun () -> Client.close conn)
  @@ fun () ->
  let fsim id =
    req
      ( "faultsim",
        [
          ("circuit", Json.String "c17");
          ("vectors", Json.Int 48);
          ("id", Json.String id);
        ] )
  in
  let cold =
    match roundtrip conn (fsim "cold") with
    | Protocol.Ok_reply { output; _ } -> output
    | _ -> Alcotest.fail "cold request failed"
  in
  match roundtrip conn (fsim "warm") with
  | Protocol.Ok_reply { output; report = Some report; _ } ->
    check_string "warm output bit-identical to cold" cold output;
    let counters =
      match Json.member "metrics" report with
      | Some m -> (
        match Json.member "counters" m with
        | Some (Json.Obj cs) -> cs
        | _ -> [])
      | None -> []
    in
    (* The acceptance bar: the warm daemon request did zero fault
       simulation — not one fsim.* counter moved in its own snapshot —
       and its store section shows the hit. *)
    List.iter
      (fun (name, v) ->
        check_bool
          (Printf.sprintf "unexpected %s=%s on warm request" name
             (Json.to_compact v))
          false
          (String.length name >= 5 && String.sub name 0 5 = "fsim."))
      counters;
    (match Json.member "store" report with
     | Some s -> (
       match Json.member "hits" s with
       | Some (Json.Int h) -> check_bool "store hit recorded" true (h >= 1)
       | _ -> Alcotest.fail "store.hits missing from warm report")
     | None -> Alcotest.fail "no store section in warm report")
  | _ -> Alcotest.fail "warm request failed"

(* The job bodies hand fault simulation netlist values the daemon keeps
   per circuit (the pipeline's netlist, and for atpg on a sequential
   circuit one full-scan netlist), so once faultsim on c432 and c499
   and atpg on b03 have run, the same requests again, alternating
   between circuits, compile no netlist. *)
let test_repeat_traffic_compiles_nothing () =
  let ctx = Mutsamp_exec.Ctx.default in
  let round () =
    List.map
      (fun circuit -> Jobs.faultsim ~ctx ~circuit ~vectors:256 ~lfsr:false ~seed:2005)
      [ "c432"; "c499" ]
    @ [ Jobs.atpg ~ctx ~circuit:"b03" ~generator:"podem" ~seed:2005 ]
  in
  let first = round () in
  let rec compiles (s : Trace.span) =
    List.fold_left
      (fun n c -> n + compiles c)
      (if s.Trace.name = "fsim_compile" then 1 else 0)
      s.Trace.children
  in
  let second, n =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.reset ())
      (fun () ->
        Trace.set_enabled true;
        Trace.reset ();
        let second = round () in
        (second, List.fold_left (fun n s -> n + compiles s) 0 (Trace.roots ())))
  in
  check_bool "same replies" true (first = second);
  check_int "fsim_compile spans on repeat traffic" 0 n

let suite =
  [
    ( "serve.queue",
      [
        Alcotest.test_case "sheds when full" `Quick (clean test_bq_sheds_when_full);
        Alcotest.test_case "close drains" `Quick (clean test_bq_close_drains);
        Alcotest.test_case "blocking pop" `Quick (clean test_bq_blocking_pop);
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request parsing" `Quick (clean test_protocol_parse_ok);
        Alcotest.test_case "typed parse failures" `Quick
          (clean test_protocol_parse_errors);
        Alcotest.test_case "reply roundtrip" `Quick
          (clean test_protocol_reply_roundtrip);
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "fault isolation end to end" `Quick
          (clean test_serve_fault_isolation);
        Alcotest.test_case "overload sheds, health answers" `Quick
          (clean test_serve_overload_and_health);
        Alcotest.test_case "drain cancels in-flight work" `Quick
          (clean test_serve_drain_cancels_inflight);
        Alcotest.test_case "warm store replay" `Quick
          (clean test_serve_warm_store_replay);
        Alcotest.test_case "report fsim and exec sections" `Quick
          (clean test_serve_report_sections);
        Alcotest.test_case "repeat traffic compiles nothing" `Quick
          (clean test_repeat_traffic_compiles_nothing);
      ] );
  ]
