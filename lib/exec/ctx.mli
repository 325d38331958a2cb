(** The run context: one record carrying everything a sharded stage
    needs — domain pool, budget, progress callback, campaign store —
    threaded as a single [?ctx] argument instead of a scatter of
    per-call optionals.

    [default] runs sequentially under the ambient budget, reports no
    progress and uses no store; an entry point called without [?ctx]
    behaves that way. *)

type t = {
  pool : Pool.t option;  (** [None] = sequential execution *)
  budget : Mutsamp_robust.Budget.t option;
      (** [None] = the CLI-installed ambient budget at point of use *)
  progress : (stage:string -> done_:int -> total:int -> unit) option;
  store : Mutsamp_store.Store.t option;
      (** campaign store for fetch-or-compute reuse ([None] = always
          compute) *)
}

val default : t

val with_pool : Pool.t -> t
(** {!default} with the given pool installed. *)

val with_store : Mutsamp_store.Store.t -> t
(** {!default} with the given campaign store installed. *)

val make :
  ?pool:Pool.t ->
  ?budget:Mutsamp_robust.Budget.t ->
  ?store:Mutsamp_store.Store.t ->
  ?progress:(stage:string -> done_:int -> total:int -> unit) ->
  unit ->
  t
(** Assemble a context field by field (omitted fields as in
    {!default}). The service daemon builds one per request this way:
    the shared pool, the request's own budget and the server's store,
    without relying on the process-ambient budget. *)

val store : t -> Mutsamp_store.Store.t option

val jobs : t -> int
(** Effective fan-out at this call site: 1 without a pool or when the
    calling domain is already inside a worker (nested parallelism runs
    inline), else the pool size. *)

val budget : t -> Mutsamp_robust.Budget.t
(** The context's budget, defaulting to [Budget.ambient ()]. *)

val ticker : t -> stage:string -> total:int -> int -> unit
(** [ticker t ~stage ~total] is the progress tick of one sharded stage
    ([Fsim.run], [Pipeline.classify_equivalents]): [tick n] adds [n]
    finished items to the stage's count and reports the new count to
    the progress callback. Ticks may come from any domain; the count
    and the callback run under one mutex, so the callback sees the
    counts strictly increasing and is never entered twice at once.
    Without a progress callback the tick does nothing: no lock, no
    counter. *)

val map_cells : t -> 'a list -> f:('a -> 'b) -> 'b list
(** Campaign-cell parallelism: [f] runs once per list element, one pool
    task per cell, results in list order (so parallel output merges
    identically to [List.map f xs]). Unlike {!map_shards} the context
    budget is shared, not split — its quotas are atomic, and campaign
    cells want the global cap. Inside a cell the effective job count is
    1 (nested parallel stages run inline). Sequential contexts reduce
    to [List.map f xs]. *)

val map_shards :
  t -> n:int -> f:(budget:Mutsamp_robust.Budget.t -> lo:int -> len:int -> 'a) -> 'a array
(** Shard [n] items into balanced contiguous ranges across the pool:
    [f ~budget ~lo ~len] runs once per chunk with an even split of the
    context budget (leftovers refunded to it after the join, also on
    exceptions), and results come back in chunk order — concatenating
    them reproduces sequential output exactly. With an effective job
    count of 1 (or [n <= 1]) the body runs once on the caller with
    [lo = 0], [len = n] and the undivided budget: the sequential path,
    bit-identical by construction. *)
