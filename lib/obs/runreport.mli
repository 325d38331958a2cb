(** Machine-readable run reports.

    One experiment run — a CLI subcommand or a bench session — is
    serialised to a single stable JSON document: a versioned header
    (tool, command, the fully resolved configuration, master seed), the
    completed span tree and the metric snapshot. The bench harness and
    the CLI's [--report] flag share this schema, so `BENCH_*.json`
    trajectory files and ad-hoc experiment reports are interchangeable
    inputs for downstream tooling.

    Schema (version 1):
    {v
    { "schema": 1,
      "tool": "mutsamp",
      "version": "<tool version>",
      "command": "<subcommand>",
      "circuits": ["c432", ...],
      "seed": 2005,
      "config": { ... } | null,
      "spans": [ { "name", "start_s", "duration_s", "alloc_words",
                   "track"?, "attrs"?, "children"? } ... ],
      "metrics": { "counters": {..}, "histograms": {..} },
      ...extra fields... }
    v}

    Spans carry an optional ["track"] (worker domain index; absent
    means the main domain). Additive optional sections validated when
    present: ["analysis"] (lint findings), ["profile"] (flat self-time
    rows from [--profile]), ["exec"] (jobs used, host core count and
    OCaml version, plus execution histograms), ["store"] (campaign-store attachment and reuse
    counters from [--store]) and ["serve"] (per-request service-daemon
    context in daemon replies). *)

val schema_version : int
val tool_version : string

val make :
  command:string ->
  ?circuits:string list ->
  ?config:Json.t ->
  ?seed:int ->
  ?extra:(string * Json.t) list ->
  spans:Trace.span list ->
  metrics:Metrics.snapshot ->
  unit ->
  Json.t

val write_file : string -> Json.t -> unit
(** Atomic: the report is written to a [.tmp.*] sibling and renamed
    into place, so readers never observe a torn file. *)

val validate : Json.t -> (unit, string) result
(** Structural schema check: version, required header fields, every
    span well-formed recursively, metrics numeric. Optional sections
    are validated when present and reports without them remain valid:
    ["analysis"] (per-rule counts and diagnostics from [mutsamp lint]),
    ["profile"] (wall time plus self-time rows from [--profile]),
    ["exec"] (integer job and core counts, string [ocaml], numeric
    histograms), ["store"]
    (boolean [enabled], optional [dir], integer counters) and ["serve"]
    (scalar request-context fields). Used by the [bench-smoke] alias
    and the report tests, so a report-format regression fails
    [dune runtest]. *)

val validate_file : string -> (unit, string) result
