(** Fault-isolated campaign service daemon.

    One accept loop, one connection thread per client, one worker
    thread executing queued jobs against a shared {!Mutsamp_exec.Pool}
    and [--store] handle. Requests are admitted through a bounded
    queue ({!Bq}): when it is full the client gets an immediate typed
    [overloaded] reply (exit code 69 client-side) instead of unbounded
    latency — load is shed, never buffered.

    Fault isolation is per request: the worker runs each job under a
    fresh {!Mutsamp_robust.Budget} with observability state (metrics,
    degrade record, store counters, chaos armings) reset at entry, and
    converts any escape — typed [Error.E], injected chaos, or an
    arbitrary exception — into a typed error reply. One poisoned
    request can never take the daemon down.

    Drain (SIGTERM/SIGINT or {!initiate_drain}) is graceful: stop
    accepting, answer new requests with [overloaded], finish queued
    jobs, and after [drain_grace_ms] budget-cancel whatever is still
    running via {!Mutsamp_robust.Budget.expire}; {!run} then returns
    normally so the process exits 0. Signal handlers only set an
    atomic flag — the accept loop observes it on its next ~250 ms
    select tick. See docs/SERVICE.md. *)

module Error = Mutsamp_robust.Error
module Store = Mutsamp_store.Store

type listen = Unix_path of string | Tcp of string * int
(** [Tcp (addr, port)] binds a numeric address, e.g. ["127.0.0.1"]. *)

type config = {
  listen : listen;
  queue_depth : int;  (** bounded-queue capacity; overflow is shed *)
  request_deadline_ms : int;  (** server-side cap per request; 0 = none *)
  idle_timeout_ms : int;  (** close idle connections; 0 = never *)
  drain_grace_ms : int;  (** budget-cancel in-flight work after this *)
  jobs : int;  (** worker pool domains; 1 = in-process sequential *)
  store : Store.t option;
  chaos_specs : string list;  (** armed for every request (test hook) *)
  log : (string -> unit) option;  (** verbose logging sink *)
}

val config :
  ?queue_depth:int ->
  ?request_deadline_ms:int ->
  ?idle_timeout_ms:int ->
  ?drain_grace_ms:int ->
  ?jobs:int ->
  ?store:Store.t ->
  ?chaos_specs:string list ->
  ?log:(string -> unit) ->
  listen ->
  config
(** Defaults: queue depth 16, no request deadline, 30 s idle timeout,
    2 s drain grace, 1 job, no store, no chaos. *)

type t

val create : config -> (t, Error.t) result
(** Bind and listen (unlinking a stale Unix-socket path first).
    Failures are [Io_error]. *)

val run : t -> unit
(** Serve until drained: blocks in the accept loop, then performs the
    graceful drain and releases the socket (and pool). Call
    {!initiate_drain} — or install it as a SIGTERM/SIGINT handler —
    to stop. *)

val initiate_drain : t -> unit
(** Request a graceful drain. Only sets an atomic flag, so it is safe
    to call from a signal handler or any thread. *)

val draining : t -> bool
