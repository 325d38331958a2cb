module Metrics = Mutsamp_obs.Metrics
module Trace = Mutsamp_obs.Trace

(* Observability series (no-ops unless metrics collection is on). *)
let c_pools = Metrics.counter "exec.pools_created"
let c_runs = Metrics.counter "exec.pool_runs"
let c_tasks = Metrics.counter "exec.tasks"
let c_inline = Metrics.counter "exec.inline_runs"

(* Time from a batch being published to a worker picking it up —
   scheduling latency, i.e. how long work sat in the (single) slot
   before each domain noticed. *)
let h_queue_wait = Metrics.histogram "exec.queue_wait_s"

(* One batch of indexed tasks. Workers claim indices with a shared
   fetch-and-add cursor, so a slow task never stalls the others, and
   the last finisher signals [work_done]. *)
type work = {
  w_run : int -> unit;
  w_n : int;
  w_next : int Atomic.t;
  w_pending : int Atomic.t;
  w_gen : int;
  w_published : float;
}

type t = {
  size : int;  (* total participants incl. the submitting caller *)
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  new_work : Condition.t;
  work_done : Condition.t;
  mutable work : work option;
  mutable gen : int;  (* bumps on every publish, so sleepers wake once *)
  mutable closed : bool;
}

(* Set while a domain is draining a batch — including the submitting
   caller, which participates in its own batch. A [run] issued from
   inside a task (nested parallelism) executes inline instead of
   publishing: the pool has exactly one batch slot, and a worker
   blocking on a sub-batch it cannot publish would deadlock. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let drain w =
  let rec loop () =
    let i = Atomic.fetch_and_add w.w_next 1 in
    if i < w.w_n then begin
      w.w_run i;
      loop ()
    end
  in
  loop ()

let worker_loop t =
  Domain.DLS.set in_worker_key true;
  (* Register this domain's trace collector up front so exporters list
     one track per pool domain even if the domain records no span. *)
  Trace.touch ();
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    let rec await () =
      if t.closed then None
      else
        match t.work with
        | Some w when w.w_gen > !last_gen -> Some w
        | _ ->
          Condition.wait t.new_work t.m;
          await ()
    in
    let next = await () in
    Mutex.unlock t.m;
    match next with
    | None -> ()
    | Some w ->
      last_gen := w.w_gen;
      Metrics.observe h_queue_wait (Unix.gettimeofday () -. w.w_published);
      drain w;
      loop ()
  in
  loop ()

let create ~domains =
  let requested =
    if domains = 0 then Domain.recommended_domain_count () else domains
  in
  let size = max 1 requested in
  let t =
    {
      size;
      workers = [];
      m = Mutex.create ();
      new_work = Condition.create ();
      work_done = Condition.create ();
      work = None;
      gen = 0;
      closed = false;
    }
  in
  Metrics.incr c_pools;
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.new_work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Deterministic indexed map: [f] runs once per index, results land in
   slot order, and the lowest-index exception (if any) is re-raised on
   the caller — matching what sequential left-to-right execution would
   have raised first. *)
let run t n ~f =
  if n = 0 then [||]
  else if n = 1 || t.size = 1 || in_worker () || t.closed then begin
    Metrics.incr c_inline;
    Metrics.add c_tasks n;
    Array.init n f
  end
  else begin
    Metrics.incr c_runs;
    Metrics.add c_tasks n;
    let results = Array.make n None in
    let first_err : (int * exn) option Atomic.t = Atomic.make None in
    let rec record_err i e =
      match Atomic.get first_err with
      | Some (j, _) when j <= i -> ()
      | cur ->
        if not (Atomic.compare_and_set first_err cur (Some (i, e))) then
          record_err i e
    in
    let body i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e -> record_err i e
    in
    let task_done = Atomic.make n in
    let w_run i =
      body i;
      if Atomic.fetch_and_add task_done (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.work_done;
        Mutex.unlock t.m
      end
    in
    let w =
      {
        w_run;
        w_n = n;
        w_next = Atomic.make 0;
        w_pending = task_done;
        w_gen = 0 (* patched under the lock below *);
        w_published = 0.0;
      }
    in
    Mutex.lock t.m;
    t.gen <- t.gen + 1;
    let w = { w with w_gen = t.gen; w_published = Unix.gettimeofday () } in
    t.work <- Some w;
    Condition.broadcast t.new_work;
    Mutex.unlock t.m;
    (* The caller drains too; flagging it as a worker makes any nested
       [run] from inside [f] execute inline. *)
    Domain.DLS.set in_worker_key true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key false) (fun () ->
        drain w);
    Mutex.lock t.m;
    while Atomic.get w.w_pending > 0 do
      Condition.wait t.work_done t.m
    done;
    t.work <- None;
    Mutex.unlock t.m;
    (* All tasks completed, so the workers are quiescent: graft any
       spans they recorded into the caller's open span — including on
       the error path, so a failing shard's trace survives. *)
    Trace.merge_worker_spans ();
    match Atomic.get first_err with
    | Some (_, e) -> raise e
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> invalid_arg "Pool.run: missing result")
        results
  end

(* Balanced contiguous [(lo, len)] chunks: at most [jobs] of them,
   never empty, sizes differing by at most one, lowest-index chunks
   take the remainder — the canonical sharding used by every stage so
   merge order is a plain concatenation. *)
let chunks ~jobs ~n =
  if n <= 0 then [||]
  else begin
    let k = max 1 (min jobs n) in
    let share = n / k and rem = n mod k in
    let lo = ref 0 in
    Array.init k (fun i ->
        let len = share + if i < rem then 1 else 0 in
        let c = (!lo, len) in
        lo := !lo + len;
        c)
  end
