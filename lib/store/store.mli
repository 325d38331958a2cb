(** Content-addressed on-disk campaign store.

    A store is a directory of immutable JSON entries, each addressed by
    the hash of a structured key: a namespace (["fsim"], ["vectors"],
    ["t1row"], …) plus a list of [(field, value)] parts whose values
    are content hashes of the inputs that determine the payload —
    design text, netlist, pattern sequence, configuration, seed. Two
    runs that agree on every input hash the same key and share the
    entry; any change to an input changes its hash, so invalidation is
    structural: stale entries are simply never addressed again.

    Layout (see docs/STORE.md):
    {v
    DIR/VERSION                "mutsamp-store <format>\n"
    DIR/<ns>/<keyhash>.json    {"schema":…,"ns":…,"key":{…},"payload":…}
    v}

    Every write goes through {!Mutsamp_robust.Atomicio} (temp + rename
    in the destination directory), so a crash or an injected
    truncation mid-write can never leave a torn entry where a good one
    stood — readers see the old payload or the new one, nothing in
    between. Write failures are contained: the computed value is still
    returned to the caller and the failure is only counted
    ([store.put_errors]); a store is an accelerator, never a
    correctness dependency.

    Reads are paranoid: an entry that fails to parse, carries the
    wrong schema, or whose embedded key differs from the requested one
    (hash collision, manual tampering) is treated as a miss and
    counted under [store.corrupt].

    Hit/miss/put/invalidation counts are kept in process-global
    atomics (mirrored into the [store.*] metrics series when
    collection is on) and exposed as the ["store"] run-report section.
    The lookup set of a campaign does not depend on [--jobs], so the
    [store.*] series obey the deterministic-namespace contract of
    docs/OBSERVABILITY.md. *)

module Json = Mutsamp_obs.Json

val format_version : int
(** Bumped when the on-disk layout changes; a store written by a
    different format refuses to open. *)

type t

val open_dir : string -> (t, Mutsamp_robust.Error.t) result
(** Open (creating if needed) the store rooted at the directory. Fails
    with [Io_error] when the directory cannot be created, the VERSION
    file cannot be written, or an existing VERSION names a different
    format. *)

val dir : t -> string

(** {2 Keys} *)

type key

val key : ns:string -> (string * string) list -> key
(** [key ~ns parts] builds a structured key. [ns] and part fields must
    be nonempty and [ns] must be filesystem-safe
    ([a-z0-9_-]); raises [Invalid_argument] otherwise. Part order is
    canonicalised (sorted by field), so callers need not agree on
    argument order. *)

val digest : string -> string
(** Hex content hash of a string — the building block for key part
    values covering large inputs (design text, pattern dumps). *)

(** {2 Entries} *)

val find : t -> key -> Json.t option
(** The payload stored under [key], or [None]. Counts [store.hits] /
    [store.misses]; corrupt or mismatching entries count
    [store.corrupt] and read as misses. Carries the
    {!Mutsamp_robust.Chaos.Store_read} injection point: an armed
    action corrupts the bytes just read (truncation or total loss)
    instead of escaping, proving the degrade-to-recompute path. *)

val put : t -> key -> Json.t -> unit
(** Atomically (over)write the entry. Never raises: failures —
    including injected {!Mutsamp_robust.Chaos.Report_write} faults —
    are swallowed and counted under [store.put_errors]. *)

val fetch_or_compute :
  t option ->
  ns:string ->
  parts:(unit -> (string * string) list) ->
  encode:('a -> Json.t) ->
  decode:(Json.t -> 'a option) ->
  (unit -> 'a) -> 'a
(** The store-aware memoisation shape every campaign stage uses.
    [None] (no store) runs the computation directly, without calling
    [parts] — so key hashing costs nothing on storeless runs. With a
    store, a
    decodable entry is returned without running the computation; on a
    miss the computation runs and its result is stored — {e unless} a
    graceful degradation ({!Mutsamp_robust.Degrade}) was recorded
    while it ran, in which case the partial result is returned but not
    cached (a budget-cut or chaos-hit run must not poison the store
    for exact re-runs). A [decode] returning [None] (codec mismatch)
    is a miss. *)

(** {2 Maintenance} *)

type stats = {
  entries : int;
  bytes : int;  (** payload files only *)
  namespaces : (string * int) list;  (** entry count per namespace, sorted *)
  stale_tmp : int;  (** leftover [*.tmp.*] files from interrupted writes *)
}

val stats : t -> stats

val stats_to_json : dir:string -> stats -> Json.t
(** Machine-readable rendering with the same information as the CLI
    text view: [{"dir", "entries", "bytes", "stale_tmp",
    "namespaces": {<ns>: count, …}}] — the payload of
    [mutsamp store stats --format json] and of the daemon's [stats]
    reply. *)

val gc : t -> ?namespace:string -> ?max_age_s:float -> unit -> int
(** Remove stale temp files plus any entry matching the filters: with
    [namespace], only that namespace's entries; with [max_age_s], only
    entries whose mtime is older. With neither filter only stale temp
    files are removed. A namespace directory left empty is removed
    too, so {!stats} stops listing it; a {!put} into that namespace
    racing the removal may fail, and is counted under
    [store.put_errors]. Returns the number of files
    deleted and counts them under [store.gc_removed]. Tolerates
    concurrent writers and collectors: a file deleted by someone else
    between [readdir] and the stat/unlink is skipped and counted under
    [store.raced], never an error. *)

val invalidate : t -> ?namespace:string -> ?field:string * string -> unit -> int
(** Delete entries — all of them by default, restricted to a namespace
    and/or to entries whose embedded key has the given [(field, value)]
    part (e.g. [("circuit", "c432")]). Filters conjoin. Returns the
    number deleted and counts them under [store.invalidated]. *)

(** {2 Observability} *)

val reset_counters : unit -> unit
(** Zero the process-global [store.*] counts (start of a CLI run). *)

val counters : unit -> (string * int) list
(** Current counts, in a fixed order: hits, misses, puts, put_errors,
    corrupt, invalidated, gc_removed, raced. *)

val report_section : t option -> Json.t
(** The ["store"] run-report section: [{"enabled": bool, "dir"?: str,
    <counters>…}]. *)
