module Json = Mutsamp_obs.Json
module Metrics = Mutsamp_obs.Metrics
module Runreport = Mutsamp_obs.Runreport
module Error = Mutsamp_robust.Error
module Budget = Mutsamp_robust.Budget
module Chaos = Mutsamp_robust.Chaos
module Degrade = Mutsamp_robust.Degrade
module Store = Mutsamp_store.Store
module Pool = Mutsamp_exec.Pool
module Ctx = Mutsamp_exec.Ctx

(* Per-request Metrics mirrors of the process-global serve counters
   (the worker resets Metrics before each job, so these register the
   cumulative values into each request's own snapshot). *)
let m_requests = Metrics.counter "serve.requests"
let m_ok = Metrics.counter "serve.ok"
let m_errors = Metrics.counter "serve.errors"
let m_rejected = Metrics.counter "serve.rejected"
let h_request_seconds = Metrics.histogram "serve.request_seconds"
let h_queue_wait_seconds = Metrics.histogram "serve.queue_wait_seconds"

type listen = Unix_path of string | Tcp of string * int

type config = {
  listen : listen;
  queue_depth : int;
  request_deadline_ms : int;  (* 0 = no per-request cap *)
  idle_timeout_ms : int;  (* 0 = connections never idle out *)
  drain_grace_ms : int;
  jobs : int;
  store : Store.t option;
  chaos_specs : string list;
  log : (string -> unit) option;
}

let config ?(queue_depth = 16) ?(request_deadline_ms = 0) ?(idle_timeout_ms = 30_000)
    ?(drain_grace_ms = 2_000) ?(jobs = 1) ?store ?(chaos_specs = []) ?log
    listen =
  {
    listen;
    queue_depth;
    request_deadline_ms;
    idle_timeout_ms;
    drain_grace_ms;
    jobs;
    store;
    chaos_specs;
    log;
  }

(* A queued job: the handler thread parks on the condvar; the worker
   fills [reply] and signals. Every admitted job is answered exactly
   once — the worker catches everything. *)
type job = {
  request : Protocol.request;
  enqueued_at : float;
  jmutex : Mutex.t;
  jcond : Condition.t;
  mutable reply : Json.t option;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  cleanup : unit -> unit;
  queue : job Bq.t;
  pool : Pool.t option;
  started_at : float;
  (* Signal handlers may ONLY touch this atomic (no mutexes in handler
     context); the accept loop polls it and performs the actual drain
     in ordinary thread context. *)
  drain_flag : bool Atomic.t;
  draining : bool Atomic.t;
  inflight : Budget.t option Atomic.t;
  worker_done : bool Atomic.t;
  a_requests : int Atomic.t;
  a_ok : int Atomic.t;
  a_errors : int Atomic.t;
  a_rejected : int Atomic.t;
}

let log t fmt =
  Printf.ksprintf (fun m -> match t.cfg.log with None -> () | Some f -> f m) fmt

let draining t = Atomic.get t.draining || Atomic.get t.drain_flag
let initiate_drain t = Atomic.set t.drain_flag true

let counters t =
  [
    ("requests", Atomic.get t.a_requests);
    ("ok", Atomic.get t.a_ok);
    ("errors", Atomic.get t.a_errors);
    ("rejected", Atomic.get t.a_rejected);
    ("frontend_hits", Jobs.frontend_hits ());
    ("frontend_misses", Jobs.frontend_misses ());
  ]

(* --- socket setup ------------------------------------------------------ *)

let create cfg =
  match
    let sock, cleanup =
      match cfg.listen with
      | Unix_path path ->
        if Sys.file_exists path then (try Unix.unlink path with _ -> ());
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_UNIX path);
        (s, fun () -> try Unix.unlink path with _ -> ())
      | Tcp (addr, port) ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
        (s, fun () -> ())
    in
    Unix.listen sock 64;
    (* Per-request metric snapshots ride in every reply report. Tracing
       stays off: span collectors are not resettable per request while
       a persistent pool holds per-domain state. *)
    Metrics.set_enabled true;
    let pool = if cfg.jobs = 1 then None else Some (Pool.create ~domains:cfg.jobs) in
    {
      cfg;
      sock;
      cleanup;
      queue = Bq.create ~capacity:cfg.queue_depth;
      pool;
      started_at = Unix.gettimeofday ();
      drain_flag = Atomic.make false;
      draining = Atomic.make false;
      inflight = Atomic.make None;
      worker_done = Atomic.make false;
      a_requests = Atomic.make 0;
      a_ok = Atomic.make 0;
      a_errors = Atomic.make 0;
      a_rejected = Atomic.make 0;
    }
  with
  | t -> Ok t
  | exception Unix.Unix_error (err, _, arg) ->
    Error (Error.Io_error (Printf.sprintf "%s: %s" arg (Unix.error_message err)))
  | exception Sys_error msg -> Error (Error.Io_error msg)

(* --- worker ------------------------------------------------------------ *)

(* Test-only op: occupy the worker for [ms] while polling the request
   budget, so overload-burst and drain tests are deterministic without
   heavy compute. Cancellation (deadline, drain-grace expiry) lands as
   a typed [Timeout serve] error. *)
let run_sleep ~budget ms =
  let step = 0.025 in
  let remaining = ref (float_of_int ms /. 1000.) in
  while !remaining > 0. do
    (match Budget.check_deadline budget ~stage:Error.Serve with
     | Ok () -> ()
     | Error e -> raise (Error.E e));
    let d = Float.min step !remaining in
    Thread.delay d;
    remaining := !remaining -. d
  done;
  Printf.sprintf "slept %d ms\n" ms

(* Returns (stdout-identical output, extra report sections). *)
let run_op ~ctx ~budget (op : Protocol.op) =
  match op with
  | Protocol.Health -> ("ok\n", [])
  | Protocol.Stats -> ("{}\n", [])
  | Protocol.Sleep { ms } -> (run_sleep ~budget ms, [])
  | Protocol.Faultsim { circuit; vectors; lfsr; seed } ->
    (Jobs.faultsim ~ctx ~circuit ~vectors ~lfsr ~seed, [])
  | Protocol.Atpg { circuit; generator; seed } ->
    (Jobs.atpg ~ctx ~circuit ~generator ~seed, [])
  | Protocol.Table1 { circuits; quick; seed } ->
    (Jobs.table1 ~ctx ~circuits ~quick ~seed, [])
  | Protocol.Table2 { circuits; quick; seed; repetitions } ->
    (Jobs.table2 ~ctx ~circuits ~quick ~seed ~repetitions (), [])
  | Protocol.Lint { circuits; strict } ->
    let output, analysis, _errors = Jobs.lint ~ctx ~circuits ~strict in
    (output, [ ("analysis", analysis) ])

let execute t (job : job) =
  let req = job.request in
  let op = Protocol.op_name req.op in
  let started = Unix.gettimeofday () in
  let queue_wait = started -. job.enqueued_at in
  (* Request-scoped observability: each reply's report sees only its
     own request's work. The single worker thread serialises jobs, so
     resetting the process-global state here is race-free. *)
  Metrics.reset ();
  Store.reset_counters ();
  Degrade.reset ();
  Chaos.disarm_all ();
  let arm_failure = ref None in
  List.iter
    (fun spec ->
      match Chaos.parse_spec spec with
      | Ok () -> ()
      | Error msg ->
        if !arm_failure = None then
          arm_failure := Some (Error.Protocol ("bad chaos spec: " ^ msg)))
    (t.cfg.chaos_specs @ req.chaos);
  let deadline_ms =
    match
      List.filter (fun ms -> ms > 0)
        [ Option.value ~default:0 req.deadline_ms; t.cfg.request_deadline_ms ]
    with
    | [] -> None
    | caps -> Some (List.fold_left min max_int caps)
  in
  (* Always a fresh budget (never the shared [unlimited] constant), so
     the drain watchdog can [expire] it. *)
  let budget = Budget.create ?deadline_ms:deadline_ms () in
  Budget.set_ambient budget;
  Atomic.set t.inflight (Some budget);
  let ctx =
    Ctx.make ?pool:t.pool ~budget ?store:t.cfg.store ()
  in
  let result =
    match !arm_failure with
    | Some e -> Error e
    | None -> (
      try Ok (run_op ~ctx ~budget req.op) with
      | Error.E e -> Error e
      | Chaos.Injected _ -> Error (Error.Injected Error.Serve)
      | e ->
        (* Request-level fault isolation: an arbitrary worker exception
           becomes a typed reply; the daemon carries on. *)
        Error (Error.Io_error (Printexc.to_string e)))
  in
  Chaos.disarm_all ();
  Atomic.set t.inflight None;
  Budget.set_ambient Budget.unlimited;
  let wall = Unix.gettimeofday () -. started in
  (match result with
   | Ok _ -> Atomic.incr t.a_ok
   | Error _ -> Atomic.incr t.a_errors);
  log t "%s id=%S %s (%.1f ms)" op req.id
    (match result with Ok _ -> "ok" | Error e -> Error.class_name e)
    (wall *. 1000.);
  match result with
  | Error e -> Protocol.error_reply ~id:req.id e
  | Ok (output, extra_sections) ->
    (* Mirror the cumulative serve counters into this request's metric
       snapshot (Metrics was reset above, so add = set). Frontend
       cache counters are bumped live by [Jobs.prepare] and so already
       reflect this request's activity. *)
    Metrics.add m_requests (Atomic.get t.a_requests);
    Metrics.add m_ok (Atomic.get t.a_ok);
    Metrics.add m_errors (Atomic.get t.a_errors);
    Metrics.add m_rejected (Atomic.get t.a_rejected);
    Metrics.observe h_request_seconds wall;
    Metrics.observe h_queue_wait_seconds queue_wait;
    let serve_section =
      Json.Obj
        ([
           ("id", Json.String req.id);
           ("op", Json.String op);
           ("queue_wait_ms", Json.Float (queue_wait *. 1000.));
           ("wall_ms", Json.Float (wall *. 1000.));
           ("queue_capacity", Json.Int (Bq.capacity t.queue));
           ("draining", Json.Bool (draining t));
         ]
        @ List.map (fun (name, v) -> (name, Json.Int v)) (counters t))
    in
    let report =
      Runreport.make ~command:op
        ~circuits:(Protocol.op_circuits req.op)
        ?seed:(Protocol.op_seed req.op)
        ~extra:
          ([
             ( "exec",
               Jobs.exec_section ~jobs_requested:t.cfg.jobs
                 ~jobs:(match t.pool with None -> 1 | Some p -> Pool.size p) );
             ("fsim", Jobs.fsim_section ());
             ("robust", Jobs.robust_section budget);
             ("store", Store.report_section t.cfg.store);
             ("serve", serve_section);
           ]
          @ extra_sections)
        ~spans:[]
        ~metrics:(Metrics.snapshot ())
        ()
    in
    Protocol.ok_reply ~id:req.id ~op ~report ~output ()

let worker_loop t =
  let rec loop () =
    match Bq.pop t.queue with
    | None -> ()
    | Some job ->
      let reply = execute t job in
      Mutex.lock job.jmutex;
      job.reply <- Some reply;
      Condition.signal job.jcond;
      Mutex.unlock job.jmutex;
      loop ()
  in
  loop ();
  Atomic.set t.worker_done true

(* --- connections ------------------------------------------------------- *)

let uptime t = Unix.gettimeofday () -. t.started_at

let health_reply t ~id =
  Protocol.ok_reply ~id ~op:"health" ~output:"ok\n"
    ~extra:
      [
        ("draining", Json.Bool (draining t));
        ("uptime_s", Json.Float (uptime t));
      ]
    ()

let stats_json t =
  Json.Obj
    ([
       ("uptime_s", Json.Float (uptime t));
       ("draining", Json.Bool (draining t));
       ("queue_depth", Json.Int (Bq.depth t.queue));
       ("queue_capacity", Json.Int (Bq.capacity t.queue));
       ("jobs", Json.Int (match t.pool with None -> 1 | Some p -> Pool.size p));
     ]
    @ List.map (fun (name, v) -> (name, Json.Int v)) (counters t)
    @ [
        ( "store",
          match t.cfg.store with
          | None -> Json.Null
          | Some s -> Store.stats_to_json ~dir:(Store.dir s) (Store.stats s) );
      ])

let stats_reply t ~id =
  let stats = stats_json t in
  Protocol.ok_reply ~id ~op:"stats"
    ~output:(Json.to_compact stats ^ "\n")
    ~extra:[ ("stats", stats) ]
    ()

let process t line =
  Atomic.incr t.a_requests;
  match Protocol.parse_request line with
  | Error e ->
    Atomic.incr t.a_errors;
    Protocol.error_reply ~id:"" e
  | Ok req -> (
    match req.op with
    (* Liveness probes are answered inline on the connection thread —
       a wedged or saturated worker must not make health checks hang. *)
    | Protocol.Health -> health_reply t ~id:req.id
    | Protocol.Stats -> stats_reply t ~id:req.id
    | _ ->
      if draining t then begin
        Atomic.incr t.a_rejected;
        Protocol.error_reply ~id:req.id (Error.Overloaded "daemon is draining")
      end
      else begin
        let job =
          {
            request = req;
            enqueued_at = Unix.gettimeofday ();
            jmutex = Mutex.create ();
            jcond = Condition.create ();
            reply = None;
          }
        in
        if not (Bq.try_push t.queue job) then begin
          Atomic.incr t.a_rejected;
          Protocol.error_reply ~id:req.id
            (Error.Overloaded
               (Printf.sprintf "queue full (depth %d)" (Bq.capacity t.queue)))
        end
        else begin
          Mutex.lock job.jmutex;
          while job.reply = None do
            Condition.wait job.jcond job.jmutex
          done;
          let reply = Option.get job.reply in
          Mutex.unlock job.jmutex;
          reply
        end
      end)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let handle_conn t fd =
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let idle_s =
    if t.cfg.idle_timeout_ms <= 0 then -1.
    else float_of_int t.cfg.idle_timeout_ms /. 1000.
  in
  let take_line () =
    let s = Buffer.contents acc in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
      Buffer.clear acc;
      Buffer.add_string acc (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
  in
  let read_more () =
    match Unix.select [ fd ] [] [] idle_s with
    | [], _, _ -> `Idle
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | n ->
        Buffer.add_subbytes acc chunk 0 n;
        `More
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
  in
  let rec loop () =
    match take_line () with
    | Some line ->
      if String.trim line <> "" then begin
        let reply = process t line in
        write_all fd (Json.to_compact reply ^ "\n")
      end;
      loop ()
    | None -> (
      match read_more () with
      | `More -> loop ()
      | `Eof -> ()
      | `Idle -> log t "connection idle for %d ms, closing" t.cfg.idle_timeout_ms)
  in
  (try loop () with
   | Unix.Unix_error _ | Sys_error _ -> ()
   | e ->
     (* Connection-level fault isolation mirror of the worker's. *)
     log t "connection handler error: %s" (Printexc.to_string e));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- main loop and drain ----------------------------------------------- *)

let run t =
  let worker = Thread.create worker_loop t in
  (* Accept loop: short select ticks so a drain request (signal or
     initiate_drain) is observed within ~250 ms without any work in
     signal-handler context. *)
  let rec accept_loop () =
    if Atomic.get t.drain_flag then ()
    else begin
      (match Unix.select [ t.sock ] [] [] 0.25 with
       | [], _, _ -> ()
       | _ -> (
         match Unix.accept t.sock with
         | fd, _ -> ignore (Thread.create (handle_conn t) fd)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful drain: stop admitting (the closed queue sheds new pushes;
     [draining] short-circuits them earlier with a typed reply), let
     already-admitted jobs finish, and once the grace period lapses
     budget-cancel whatever is still running — the worker's next
     deadline poll lands a typed [Timeout] in that client's reply. *)
  let drain_started = Unix.gettimeofday () in
  Atomic.set t.draining true;
  Bq.close t.queue;
  log t "drain: started (queue depth %d)" (Bq.depth t.queue);
  let grace_s = float_of_int t.cfg.drain_grace_ms /. 1000. in
  let watchdog =
    Thread.create
      (fun () ->
        while not (Atomic.get t.worker_done) do
          Thread.delay 0.05;
          if Unix.gettimeofday () -. drain_started > grace_s then
            match Atomic.get t.inflight with
            | Some b -> Budget.expire b
            | None -> ()
        done)
      ()
  in
  Thread.join worker;
  Thread.join watchdog;
  (match t.pool with None -> () | Some p -> Pool.shutdown p);
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  t.cleanup ();
  log t "drain: complete (%.1f ms)"
    ((Unix.gettimeofday () -. drain_started) *. 1000.)
