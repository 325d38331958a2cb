(** Typed error taxonomy for the long-running pipeline stages.

    Every stage that can run out of budget, hit a deadline or choke on
    malformed input reports it as a value of {!t} instead of an
    untyped exception, so callers can degrade gracefully (drop to a
    cheaper strategy, keep partial results) and the CLI can map each
    error class to a one-line message and a distinct exit code. *)

type stage =
  | Sat  (** CDCL solving ({!Mutsamp_sat.Solver}) *)
  | Podem
  | Topoff
  | Kill  (** mutant execution *)
  | Vectorgen
  | Fsim
  | Equivalence
  | Parse
  | Report  (** artifact writing *)
  | Pipeline  (** whole-run orchestration *)
  | Serve  (** campaign service daemon ({!Mutsamp_serve}) *)

val stage_name : stage -> string
(** Lowercase stable identifier, used in metrics series names and run
    reports ([robust.degraded.<stage>]). *)

type loc = { file : string option; line : int option }
(** Best-effort input location for parse errors. *)

type t =
  | Timeout of stage  (** wall-clock deadline passed *)
  | Budget_exhausted of { stage : stage; resource : string }
      (** a work-unit quota (SAT conflicts, PODEM backtracks,
          fault-sim pattern·fault pairs) ran out *)
  | Parse_error of { loc : loc; msg : string }
  | Aborted of stage  (** stage-local limit hit (e.g. backtrack limit) *)
  | Injected of stage  (** failure forced by the {!Chaos} harness *)
  | Io_error of string
  | Overloaded of string
      (** the service daemon's bounded queue is full (or draining); the
          request was shed, never executed — safe to retry with backoff *)
  | Protocol of string
      (** malformed service request or reply (bad JSON, unknown op,
          wrong field type) — retrying the same bytes cannot succeed *)

exception E of t
(** Bridge for legacy raise-style call sites: result-returning APIs
    never raise it, thin compatibility wrappers do. The CLI maps it to
    [to_string]/[exit_code]. *)

val ok_exn : ('a, t) result -> 'a
(** [ok_exn (Ok v)] is [v]; [ok_exn (Error e)] raises [E e]. The
    one-line bridge from the result-typed entry points back to
    raise-style call sites (tests, quick scripts). *)

val to_string : t -> string
(** One-line human-readable rendering. *)

val exit_code : t -> int
(** Distinct nonzero process exit code per error class: parse 65
    (EX_DATAERR), overloaded 69 (EX_UNAVAILABLE), I/O 74 (EX_IOERR),
    timeout 75, budget 76, aborted 77, injected 78, protocol 79. *)

val class_name : t -> string
(** Stable lowercase class identifier ([timeout], [budget], [parse],
    [aborted], [injected], [io], [overloaded], [protocol]) — the
    ["class"] field of the service daemon's typed error replies. *)
