(** Deterministic fault injection at stage boundaries.

    Tests (and the [--chaos] CLI flag) arm a failure at a named
    injection point; the instrumented stage consults the harness on
    entry and receives a forced timeout, a raised exception, or a
    truncated write. Firing is deterministic: [?after] skips a fixed
    number of hits, then every hit fires, so a failing schedule
    replays exactly.

    The harness is process-global and disarmed by default; with no
    armings, [fire]/[trip] are a hash lookup on an empty table. *)

type point =
  | Sat_solve  (** entry of every CDCL solve *)
  | Podem_search  (** entry of every PODEM call *)
  | Fsim_run  (** entry of every fault-simulation run *)
  | Vectorgen_directed  (** each directed-phase mutant attack *)
  | Kill_run  (** entry of every mutant-execution batch *)
  | Report_write  (** artifact writes ({!Atomicio.write_file}) *)
  | Parse_input  (** netlist / HDL parsing *)
  | Store_read  (** campaign-store entry reads ({!Mutsamp_store.Store.find}) *)

type action =
  | Timeout  (** stage receives [Error (Timeout _)] *)
  | Exception  (** stage body raises {!Injected} *)
  | Truncate of int  (** writes stop after that many bytes, then fail *)

exception Injected of string
(** The forced exception; containment code maps it to
    [Error.Injected]. *)

val point_name : point -> string
val stage_of_point : point -> Error.stage

val arm : ?after:int -> point -> action -> unit
(** Arm [point]. The first [after] hits pass through (default 0); once
    live, every hit fires and the point stays armed. Re-arming a point replaces its previous arming. *)

val disarm_all : unit -> unit
val any_armed : unit -> bool

val fire : point -> action option
(** Consult the harness at an injection point. [None] = proceed. *)

val trip : point -> (unit, Error.t) result
(** [fire] folded into the typed-error convention: [Timeout] becomes
    [Error (Timeout stage)], [Truncate] becomes [Error (Io_error _)],
    and [Exception] raises {!Injected} (the point of that action is to
    prove containment downstream). *)

val contain : Error.stage -> (unit -> 'a) -> ('a, Error.t) result
(** Run a stage body, converting {!Injected} and {!Error.E} escapes to
    typed errors. *)

val parse_spec : string -> (unit, string) result
(** Parse-and-arm a CLI spec: [POINT:ACTION[@AFTER]] where POINT is one
    of [sat], [podem], [fsim], [vectorgen], [kill], [report],
    [parse], [store]; ACTION is [timeout], [exn], or [truncate=N];
    AFTER is the number of hits to let pass first. Example:
    [sat:timeout], [report:truncate=16], [podem:exn@3]. *)
