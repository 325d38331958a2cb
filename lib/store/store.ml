module Json = Mutsamp_obs.Json
module Metrics = Mutsamp_obs.Metrics
module Error = Mutsamp_robust.Error
module Atomicio = Mutsamp_robust.Atomicio
module Degrade = Mutsamp_robust.Degrade
module Chaos = Mutsamp_robust.Chaos

let format_version = 1
let version_line = Printf.sprintf "mutsamp-store %d\n" format_version

type t = { dir : string }

let dir t = t.dir

(* --- counters ---------------------------------------------------------- *)

(* Process-global atomics so the ["store"] report section is available
   even when metric collection is off; the Metrics mirrors feed the
   [store.*] series of the counter snapshot. *)
let a_hits = Atomic.make 0
let a_misses = Atomic.make 0
let a_puts = Atomic.make 0
let a_put_errors = Atomic.make 0
let a_corrupt = Atomic.make 0
let a_invalidated = Atomic.make 0
let a_gc_removed = Atomic.make 0
let a_raced = Atomic.make 0

let m_hits = Metrics.counter "store.hits"
let m_misses = Metrics.counter "store.misses"
let m_puts = Metrics.counter "store.puts"
let m_put_errors = Metrics.counter "store.put_errors"
let m_corrupt = Metrics.counter "store.corrupt"
let m_invalidated = Metrics.counter "store.invalidated"
let m_gc_removed = Metrics.counter "store.gc_removed"
let m_raced = Metrics.counter "store.raced"

let bump a m n =
  ignore (Atomic.fetch_and_add a n);
  Metrics.add m n

(* A file vanished between readdir and the stat/unlink that followed —
   a concurrent writer or gc got there first. Maintenance must shrug
   (skip the path, count the race), never crash: stores are shared
   between live daemons and cron'd [store gc] invocations. *)
let raced () = bump a_raced m_raced 1

let reset_counters () =
  List.iter
    (fun a -> Atomic.set a 0)
    [
      a_hits;
      a_misses;
      a_puts;
      a_put_errors;
      a_corrupt;
      a_invalidated;
      a_gc_removed;
      a_raced;
    ]

let counters () =
  [
    ("hits", Atomic.get a_hits);
    ("misses", Atomic.get a_misses);
    ("puts", Atomic.get a_puts);
    ("put_errors", Atomic.get a_put_errors);
    ("corrupt", Atomic.get a_corrupt);
    ("invalidated", Atomic.get a_invalidated);
    ("gc_removed", Atomic.get a_gc_removed);
    ("raced", Atomic.get a_raced);
  ]

(* --- keys -------------------------------------------------------------- *)

type key = { ns : string; parts : (string * string) list }

let ns_safe s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '-')
       s

let key ~ns parts =
  if not (ns_safe ns) then invalid_arg ("Store.key: bad namespace " ^ ns);
  if List.exists (fun (f, _) -> f = "") parts then
    invalid_arg "Store.key: empty part field";
  { ns; parts = List.sort (fun (a, _) (b, _) -> compare a b) parts }

let digest s = Digest.to_hex (Digest.string s)

(* The address of a key: hash of the canonical rendering. Fields and
   values are length-prefixed so no two distinct part lists render to
   the same bytes. *)
let key_hash k =
  let b = Buffer.create 128 in
  Buffer.add_string b k.ns;
  List.iter
    (fun (f, v) ->
      Buffer.add_string b (Printf.sprintf "|%d:%s=%d:%s" (String.length f) f (String.length v) v))
    k.parts;
  digest (Buffer.contents b)

let key_json k = Json.Obj (List.map (fun (f, v) -> (f, Json.String v)) k.parts)

let key_matches k = function
  | Json.Obj fields ->
    List.length fields = List.length k.parts
    && List.for_all2
         (fun (f, v) (f', jv) -> f = f' && jv = Json.String v)
         k.parts fields
  | _ -> false

let entry_path t k = Filename.concat (Filename.concat t.dir k.ns) (key_hash k ^ ".json")

(* --- opening ----------------------------------------------------------- *)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_dir path =
  let version_file = Filename.concat path "VERSION" in
  match
    mkdir_p path;
    if Sys.file_exists version_file then begin
      let existing = read_file version_file in
      if existing <> version_line then
        Error
          (Error.Io_error
             (Printf.sprintf "%s: not a format-%d mutsamp store (%s)" path
                format_version
                (String.trim existing)))
      else Ok { dir = path }
    end
    else
      match Atomicio.write_file version_file version_line with
      | Ok () -> Ok { dir = path }
      | Error e -> Error e
  with
  | r -> r
  | exception Sys_error msg -> Error (Error.Io_error msg)
  | exception Unix.Unix_error (err, _, arg) ->
    Error (Error.Io_error (Printf.sprintf "%s: %s" arg (Unix.error_message err)))

(* --- find / put -------------------------------------------------------- *)

let find t k =
  let path = entry_path t k in
  if not (Sys.file_exists path) then begin
    bump a_misses m_misses 1;
    None
  end
  else
    let doc =
      match read_file path with
      | contents ->
        (* Chaos point: simulate on-disk corruption observed at read
           time. The store is an accelerator, so even an [Exception]
           arming is contained here — every action degrades the read
           to an unparsable entry (counted corrupt, treated as a miss)
           rather than escaping into the caller. *)
        let contents =
          match Chaos.fire Chaos.Store_read with
          | None -> contents
          | Some (Chaos.Truncate n) ->
            String.sub contents 0 (min (max n 0) (String.length contents))
          | Some (Chaos.Timeout | Chaos.Exception) -> ""
        in
        Json.parse contents
      | exception Sys_error msg -> Error msg
    in
    match doc with
    | Ok doc
      when Json.member "schema" doc = Some (Json.Int format_version)
           && Json.member "ns" doc = Some (Json.String k.ns)
           && (match Json.member "key" doc with
              | Some kj -> key_matches k kj
              | None -> false) -> (
      match Json.member "payload" doc with
      | Some payload ->
        bump a_hits m_hits 1;
        Some payload
      | None ->
        bump a_corrupt m_corrupt 1;
        bump a_misses m_misses 1;
        None)
    | Ok _ | Error _ ->
      (* Unparsable or mismatching entry: treat as a miss; the next put
         overwrites it in place. *)
      bump a_corrupt m_corrupt 1;
      bump a_misses m_misses 1;
      None

let put t k payload =
  let doc =
    Json.Obj
      [
        ("schema", Json.Int format_version);
        ("ns", Json.String k.ns);
        ("key", key_json k);
        ("payload", payload);
      ]
  in
  let result =
    try
      mkdir_p (Filename.concat t.dir k.ns);
      Atomicio.write_file (entry_path t k) (Json.to_string doc)
    with
    (* The store is an accelerator: any write failure — including an
       injected chaos exception — is contained here and only counted. *)
    | _ -> Error (Error.Io_error "store write failed")
  in
  match result with
  | Ok () -> bump a_puts m_puts 1
  | Error _ -> bump a_put_errors m_put_errors 1

let fetch_or_compute store ~ns ~parts ~encode ~decode f =
  match store with
  | None -> f ()
  | Some t -> (
    let k = key ~ns (parts ()) in
    match Option.bind (find t k) decode with
    | Some v -> v
    | None ->
      let degradations_before = List.length (Degrade.events ()) in
      let v = f () in
      (* A run cut short by budget/deadline/chaos is conservative but
         not canonical — return it, never cache it. *)
      if List.length (Degrade.events ()) = degradations_before then
        put t k (encode v);
      v)

(* --- maintenance ------------------------------------------------------- *)

let is_tmp name =
  (* Atomicio temp files: "<base>.tmp.<suffix>". *)
  let rec find_sub i =
    if i + 5 > String.length name then false
    else if String.sub name i 5 = ".tmp." then true
    else find_sub (i + 1)
  in
  find_sub 0

(* [Sys.is_directory] raises on a path deleted after readdir — these
   branch bodies run outside the [exception] clause of their match, so
   the race must be caught right here. *)
let is_directory_opt path =
  try Sys.is_directory path
  with Sys_error _ ->
    raced ();
    false

let namespaces_of t =
  match Sys.readdir t.dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e ->
           e <> "VERSION" && is_directory_opt (Filename.concat t.dir e))
    |> List.sort compare
  | exception Sys_error _ -> []

let entry_files t ns =
  let d = Filename.concat t.dir ns in
  match Sys.readdir d with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> Filename.check_suffix e ".json" && not (is_tmp e))
    |> List.sort compare
    |> List.map (Filename.concat d)
  | exception Sys_error _ -> []

let tmp_files t =
  let in_dir d =
    match Sys.readdir d with
    | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             let p = Filename.concat d e in
             if is_tmp e && not (is_directory_opt p) then Some p else None)
    | exception Sys_error _ -> []
  in
  in_dir t.dir @ List.concat_map (fun ns -> in_dir (Filename.concat t.dir ns)) (namespaces_of t)

type stats = {
  entries : int;
  bytes : int;
  namespaces : (string * int) list;
  stale_tmp : int;
}

let file_size path = match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    raced ();
    0
  | exception Unix.Unix_error _ -> 0

let stats t =
  let per_ns =
    List.map (fun ns -> (ns, entry_files t ns)) (namespaces_of t)
  in
  {
    entries = List.fold_left (fun acc (_, fs) -> acc + List.length fs) 0 per_ns;
    bytes =
      List.fold_left
        (fun acc (_, fs) -> List.fold_left (fun a f -> a + file_size f) acc fs)
        0 per_ns;
    namespaces = List.map (fun (ns, fs) -> (ns, List.length fs)) per_ns;
    stale_tmp = List.length (tmp_files t);
  }

let stats_to_json ~dir s =
  Json.Obj
    [
      ("dir", Json.String dir);
      ("entries", Json.Int s.entries);
      ("bytes", Json.Int s.bytes);
      ("stale_tmp", Json.Int s.stale_tmp);
      ( "namespaces",
        Json.Obj (List.map (fun (ns, n) -> (ns, Json.Int n)) s.namespaces) );
    ]

let remove path =
  match Unix.unlink path with
  | () -> true
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    (* A concurrent gc (or invalidate) unlinked it first: not ours to
       count as removed, not an error either. *)
    raced ();
    false
  | exception Unix.Unix_error _ -> false

(* Drop a namespace directory gc left empty. It fails harmlessly when
   entries remain or a concurrent writer refilled it (ENOTEMPTY, or
   EEXIST on some systems), and when a concurrent gc dropped it first
   or it never existed (ENOENT). *)
let remove_if_empty dir = try Unix.rmdir dir with Unix.Unix_error _ -> ()

let gc t ?namespace ?max_age_s () =
  let removed_tmp = List.length (List.filter remove (tmp_files t)) in
  let now = Unix.gettimeofday () in
  let old_enough path =
    match max_age_s with
    | None -> namespace <> None
    | Some age -> (
      match Unix.stat path with
      | { Unix.st_mtime; _ } -> now -. st_mtime > age
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        raced ();
        false
      | exception Unix.Unix_error _ -> false)
  in
  let targets =
    match namespace with Some ns -> [ ns ] | None -> namespaces_of t
  in
  let removed_entries =
    List.fold_left
      (fun acc ns ->
        acc
        + List.length
            (List.filter remove (List.filter old_enough (entry_files t ns))))
      0 targets
  in
  (* Only directories that are namespaces: [namespace] comes from the
     command line and may name any path. *)
  List.iter
    (fun ns -> if List.mem ns targets then remove_if_empty (Filename.concat t.dir ns))
    (namespaces_of t);
  let n = removed_tmp + removed_entries in
  bump a_gc_removed m_gc_removed n;
  n

let invalidate t ?namespace ?field () =
  let matches path =
    match field with
    | None -> true
    | Some (f, v) -> (
      match Json.parse (read_file path) with
      | Ok doc -> (
        match Json.member "key" doc with
        | Some kj -> Json.member f kj = Some (Json.String v)
        | None -> false)
      | Error _ -> true  (* unreadable entry: drop it *)
      | exception Sys_error _ ->
        raced ();
        false)
  in
  let targets =
    match namespace with Some ns -> [ ns ] | None -> namespaces_of t
  in
  let n =
    List.fold_left
      (fun acc ns ->
        acc + List.length (List.filter remove (List.filter matches (entry_files t ns))))
      0 targets
  in
  bump a_invalidated m_invalidated n;
  n

(* --- report section ---------------------------------------------------- *)

let report_section t =
  let counts = List.map (fun (name, v) -> (name, Json.Int v)) (counters ()) in
  match t with
  | None -> Json.Obj (("enabled", Json.Bool false) :: counts)
  | Some t ->
    Json.Obj (("enabled", Json.Bool true) :: ("dir", Json.String t.dir) :: counts)
