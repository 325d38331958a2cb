(* Counts are atomics and the registries are mutex-guarded so workers
   on other domains can bump shared handles without tearing; sums of
   atomic increments are order-independent, so totals stay
   deterministic under sharded execution. *)
type counter = { c_name : string; count : int Atomic.t }

type histogram = {
  h_name : string;
  h_mutex : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Per-domain suppression, so sharded work that would double-count a
   series already counted by its coordinator can run with collection
   locally off without touching the global flag. *)
let suppressed_key = Domain.DLS.new_key (fun () -> false)
let live () = Atomic.get enabled_flag && not (Domain.DLS.get suppressed_key)

let with_suppressed f =
  let prev = Domain.DLS.get suppressed_key in
  Domain.DLS.set suppressed_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set suppressed_key prev) f

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let locked m f = Mutex.protect m f

let counter name =
  locked registry_mutex @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = Atomic.make 0 } in
    Hashtbl.replace counters name c;
    c

let histogram name =
  locked registry_mutex @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_mutex = Mutex.create ();
        n = 0;
        sum = 0.;
        min_v = infinity;
        max_v = neg_infinity;
      }
    in
    Hashtbl.replace histograms name h;
    h

let incr c = if live () then Atomic.incr c.count
let add c n = if live () then ignore (Atomic.fetch_and_add c.count n)

let observe h v =
  if live () then
    locked h.h_mutex @@ fun () ->
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v

let add_named name n = if live () then add (counter name) n
let observe_named name v = if live () then observe (histogram name) v

let reset () =
  locked registry_mutex @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) counters;
  Hashtbl.iter
    (fun _ h ->
      locked h.h_mutex @@ fun () ->
      h.n <- 0;
      h.sum <- 0.;
      h.min_v <- infinity;
      h.max_v <- neg_infinity)
    histograms

type histogram_stats = { n : int; sum : float; min_v : float; max_v : float }

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_stats) list;
}

let snapshot () =
  locked registry_mutex @@ fun () ->
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        let v = Atomic.get c.count in
        if v <> 0 then (name, v) :: acc else acc)
      counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs =
    Hashtbl.fold
      (fun name (h : histogram) acc ->
        let stats =
          locked h.h_mutex @@ fun () ->
          { n = h.n; sum = h.sum; min_v = h.min_v; max_v = h.max_v }
        in
        if stats.n > 0 then (name, stats) :: acc else acc)
      histograms []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counters = cs; histograms = hs }

let to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, (h : histogram_stats)) ->
               ( k,
                 Json.Obj
                   [
                     ("n", Json.Int h.n);
                     ("sum", Json.Float h.sum);
                     ("min", Json.Float h.min_v);
                     ("max", Json.Float h.max_v);
                     ("mean", Json.Float (h.sum /. float_of_int h.n));
                   ] ))
             s.histograms) );
    ]

let stats_to_json (h : histogram_stats) =
  Json.Obj
    [
      ("n", Json.Int h.n);
      ("sum", Json.Float h.sum);
      ("min", Json.Float h.min_v);
      ("max", Json.Float h.max_v);
      ("mean", Json.Float (h.sum /. float_of_int h.n));
    ]

(* Prometheus text exposition format, version 0.0.4. Series names like
   "fsim.patterns_simulated" become "mutsamp_fsim_patterns_simulated";
   our count/sum/min/max histograms map onto a summary plus two
   gauges. *)
let prometheus_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "mutsamp_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prometheus_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_prometheus s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prometheus_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    s.counters;
  List.iter
    (fun (name, (h : histogram_stats)) ->
      let n = prometheus_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.n);
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (prometheus_float h.sum));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s_min gauge\n%s_min %s\n" n n
           (prometheus_float h.min_v));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s_max gauge\n%s_max %s\n" n n
           (prometheus_float h.max_v)))
    s.histograms;
  Buffer.contents buf

let pp fmt s =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-40s %12d@\n" name v)
    s.counters;
  List.iter
    (fun (name, (h : histogram_stats)) ->
      Format.fprintf fmt "%-40s n=%d sum=%.3f min=%.3f max=%.3f mean=%.3f@\n" name
        h.n h.sum h.min_v h.max_v
        (h.sum /. float_of_int h.n))
    s.histograms
