(** Wire protocol of the campaign service daemon.

    Newline-delimited JSON, one object per line in each direction (see
    docs/SERVICE.md for the grammar). A request names an [op] plus
    op-specific fields and three optional envelope fields: [id]
    (echoed verbatim in the reply), [deadline_ms] (per-request budget
    cap) and [chaos] (injection specs armed for this request only —
    the fault-isolation test hook). Unknown fields are ignored. Replies
    are either [{"status":"ok", ..., "output", "report"?}] — [output] is the
    byte-identical stdout text of the equivalent batch CLI command,
    [report] a schema-1 run report — or [{"status":"error", "class",
    "message", "exit_code"}] mapping {!Mutsamp_robust.Error.t} onto
    the wire. *)

module Json = Mutsamp_obs.Json
module Error = Mutsamp_robust.Error

type op =
  | Health  (** liveness probe; answered inline, never queued *)
  | Stats  (** queue/counter/store snapshot; answered inline *)
  | Sleep of { ms : int }
      (** test-only: hold the worker for [ms] under budget polling —
          makes overload and drain tests deterministic *)
  | Faultsim of { circuit : string; vectors : int; lfsr : bool; seed : int }
  | Atpg of { circuit : string; generator : string; seed : int }
      (** [generator] is the test-generation algorithm ([podem]/[sat]) *)
  | Table1 of { circuits : string list; quick : bool; seed : int }
  | Table2 of { circuits : string list; quick : bool; seed : int; repetitions : int }
  | Lint of { circuits : string list; strict : bool }

type request = {
  id : string;  (** client correlation token, echoed in the reply *)
  op : op;
  deadline_ms : int option;
  chaos : string list;  (** {!Mutsamp_robust.Chaos.parse_spec} specs *)
}

val op_name : op -> string
val op_circuits : op -> string list
val op_seed : op -> int option

val parse_request : string -> (request, Error.t) result
(** Parse one request line. All failures — unparsable JSON, a
    non-object, missing/ill-typed fields, an unknown op — are
    [Error.Protocol], which the server turns into a typed error reply
    (exit code 79 client-side), never a dropped connection. *)

val ok_reply :
  id:string ->
  op:string ->
  ?extra:(string * Json.t) list ->
  ?report:Json.t ->
  output:string ->
  unit ->
  Json.t

val error_reply : id:string -> Error.t -> Json.t

type reply =
  | Ok_reply of { id : string; op : string; output : string; report : Json.t option }
  | Error_reply of { id : string; class_ : string; message : string; exit_code : int }

val parse_reply : string -> (reply, Error.t) result
(** Client-side reply parsing; failures are [Error.Protocol]. *)
