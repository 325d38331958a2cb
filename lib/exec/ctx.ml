module Budget = Mutsamp_robust.Budget
module Metrics = Mutsamp_obs.Metrics
module Trace = Mutsamp_obs.Trace

(* Per-shard wall time, recorded on the executing domain. The spread
   between min and max is the shard-imbalance signal: a max far above
   the mean means one chunk dominated the join. *)
let h_shard_seconds = Metrics.histogram "exec.shard_seconds"

type t = {
  pool : Pool.t option;
  budget : Budget.t option;
  progress : (stage:string -> done_:int -> total:int -> unit) option;
  store : Mutsamp_store.Store.t option;
}

let default =
  {
    pool = None;
    budget = None;
    progress = None;
    store = None;
  }

let with_pool pool = { default with pool = Some pool }
let with_store store = { default with store = Some store }

let make ?pool ?budget ?store ?progress () = { pool; budget; progress; store }
let store t = t.store

let jobs t =
  match t.pool with
  | None -> 1
  | Some p -> if Pool.in_worker () then 1 else Pool.size p

let budget t =
  match t.budget with Some b -> b | None -> Budget.ambient ()

(* One mutex covers both the count and the callback, so records leave
   in count order whichever domain finished the items. *)
let ticker t ~stage ~total =
  match t.progress with
  | None -> ignore
  | Some f ->
    let lock = Mutex.create () in
    let done_ = ref 0 in
    fun n ->
      Mutex.protect lock (fun () ->
          done_ := !done_ + n;
          f ~stage ~done_:!done_ ~total)

(* The one sharding shape every sharded stage uses: balanced contiguous
   chunks, per-shard budget split (refunded after the join), results
   merged in chunk order. With an effective job count of 1 — no pool,
   pool of size 1, or already inside a worker — the body runs once with
   the whole range and the undivided budget: exactly the sequential
   path, so jobs=1 stays bit-identical by construction. *)
(* Campaign-cell parallelism: one pool task per list element, results
   in list order. Cells share the context budget (its quotas are
   atomic) rather than splitting it — a cell's cost is unknown up
   front, and campaigns want the global cap, not a per-cell one. *)
let map_cells t xs ~f =
  match t.pool with
  | Some pool when jobs t > 1 && List.length xs > 1 ->
    let arr = Array.of_list xs in
    Array.to_list
      (Pool.run pool (Array.length arr) ~f:(fun i ->
           Trace.with_span "cell"
             ~attrs:[ ("index", string_of_int i) ]
             (fun () -> f arr.(i))))
  | _ -> List.map f xs

let map_shards t ~n ~f =
  let b = budget t in
  let j = jobs t in
  if j <= 1 || n <= 1 then [| f ~budget:b ~lo:0 ~len:n |]
  else begin
    let pool = Option.get t.pool in
    let ch = Pool.chunks ~jobs:j ~n in
    let k = Array.length ch in
    if k <= 1 then [| f ~budget:b ~lo:0 ~len:n |]
    else begin
      let budgets = Budget.split b k in
      Fun.protect
        ~finally:(fun () -> Budget.refund b budgets)
        (fun () ->
          Pool.run pool k ~f:(fun i ->
              let lo, len = ch.(i) in
              let v, dt =
                Trace.with_span_timed "shard"
                  ~attrs:
                    [
                      ("index", string_of_int i);
                      ("lo", string_of_int lo);
                      ("len", string_of_int len);
                    ]
                  (fun () -> f ~budget:budgets.(i) ~lo ~len)
              in
              Metrics.observe h_shard_seconds dt;
              v))
    end
  end
