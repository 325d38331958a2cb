type span = {
  name : string;
  attrs : (string * string) list;
  start_s : float;
  duration_s : float;
  alloc_words : float;
  track : int;
  children : span list;
}

type frame = {
  f_name : string;
  mutable f_attrs : (string * string) list;  (* reversed *)
  f_start_abs : float;
  f_start_rel : float;
  f_alloc0 : float;
  mutable f_children_rev : span list;
}

(* One collector per domain, kept in domain-local storage: spans opened
   on a worker domain nest in that domain's own stack, so sharded code
   can instrument itself without synchronisation on the hot path. The
   registry below exists only so the coordinating domain can find the
   worker collectors at a join. *)
type collector = {
  c_track : int;  (* 0 is the main domain *)
  c_label : string;
  mutable c_stack : frame list;
  mutable c_roots_rev : span list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Registry state — all three fields below are guarded by this mutex.
   It is touched only at span open (epoch), first span per domain
   (registration) and merges, never per hot-loop iteration. *)
let registry_mutex = Mutex.create ()
let next_track = ref 0
let collectors : collector list ref = ref []
let epoch : float option ref = ref None

let locked f = Mutex.protect registry_mutex f

let new_collector () =
  locked @@ fun () ->
  let track = !next_track in
  next_track := track + 1;
  let c =
    {
      c_track = track;
      c_label = (if track = 0 then "main" else Printf.sprintf "worker-%d" track);
      c_stack = [];
      c_roots_rev = [];
    }
  in
  collectors := !collectors @ [ c ];
  c

let collector_key = Domain.DLS.new_key new_collector
let self () = Domain.DLS.get collector_key

(* Force the main domain onto track 0 at module initialisation. *)
let main_collector = self ()
let touch () = ignore (self ())

let reset () =
  locked @@ fun () ->
  List.iter
    (fun c ->
      c.c_stack <- [];
      c.c_roots_rev <- [])
    !collectors;
  (* Worker domains from before the reset belong to pools of a previous
     run; drop their collectors so a fresh run numbers its tracks from
     1 again. Their domain-local references go stale harmlessly — any
     span they might still record is simply never merged. *)
  collectors := [ main_collector ];
  next_track := 1;
  epoch := None

let now () = Unix.gettimeofday ()

let alloc_now () =
  (* [Gc.minor_words] reads the live allocation pointer; [quick_stat]'s
     copy is only refreshed at collections and would show 0 for short
     spans. Both are per-domain in multicore OCaml, which is exactly
     what a per-domain collector wants. *)
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let add_attr k v =
  let c = self () in
  match c.c_stack with
  | [] -> ()
  | f :: _ -> f.f_attrs <- (k, v) :: f.f_attrs

let epoch_for t0 =
  locked @@ fun () ->
  match !epoch with
  | Some e -> e
  | None ->
    epoch := Some t0;
    t0

let open_frame c attrs name =
  let t0 = now () in
  let ep = epoch_for t0 in
  let frame =
    {
      f_name = name;
      f_attrs = List.rev attrs;
      f_start_abs = t0;
      f_start_rel = t0 -. ep;
      f_alloc0 = alloc_now ();
      f_children_rev = [];
    }
  in
  c.c_stack <- frame :: c.c_stack;
  frame

let close_frame c frame =
  let t1 = now () in
  let span =
    {
      name = frame.f_name;
      attrs = List.rev frame.f_attrs;
      start_s = frame.f_start_rel;
      duration_s = t1 -. frame.f_start_abs;
      alloc_words = alloc_now () -. frame.f_alloc0;
      track = c.c_track;
      children = List.rev frame.f_children_rev;
    }
  in
  (match c.c_stack with
   | f :: rest when f == frame -> c.c_stack <- rest
   | _ -> ());
  (match c.c_stack with
   | [] -> c.c_roots_rev <- span :: c.c_roots_rev
   | parent :: _ -> parent.f_children_rev <- span :: parent.f_children_rev)

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let c = self () in
    let frame = open_frame c attrs name in
    match f () with
    | v ->
      close_frame c frame;
      v
    | exception e ->
      frame.f_attrs <- ("error", "true") :: frame.f_attrs;
      close_frame c frame;
      raise e
  end

let with_span_timed ?(attrs = []) name f =
  if not (enabled ()) then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let c = self () in
    let frame = open_frame c attrs name in
    match f () with
    | v ->
      let dt = now () -. frame.f_start_abs in
      close_frame c frame;
      (v, dt)
    | exception e ->
      frame.f_attrs <- ("error", "true") :: frame.f_attrs;
      close_frame c frame;
      raise e
  end

let roots () = List.rev main_collector.c_roots_rev

let tracks () =
  locked @@ fun () ->
  List.map (fun c -> (c.c_track, c.c_label)) !collectors

(* Called by the execution engine on the coordinating domain after a
   pool join: every completed top-level span recorded by another domain
   is grafted into the coordinator's innermost open span (or its root
   list), tagged with its own track so exporters can reconstruct the
   per-domain timeline. The join's synchronisation makes the workers
   quiescent, so reading their collectors under the registry mutex is
   safe. *)
let merge_worker_spans () =
  if enabled () then begin
    let me = self () in
    let stolen =
      locked @@ fun () ->
      List.concat_map
        (fun c ->
          if c == me then []
          else begin
            let spans = List.rev c.c_roots_rev in
            c.c_roots_rev <- [];
            spans
          end)
        !collectors
    in
    if stolen <> [] then begin
      let stolen =
        List.stable_sort (fun a b -> compare (a.track, a.start_s) (b.track, b.start_s)) stolen
      in
      match me.c_stack with
      | f :: _ -> f.f_children_rev <- List.rev stolen @ f.f_children_rev
      | [] -> me.c_roots_rev <- List.rev stolen @ me.c_roots_rev
    end
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let rec span_to_json s =
  let base =
    [
      ("name", Json.String s.name);
      ("start_s", Json.Float s.start_s);
      ("duration_s", Json.Float s.duration_s);
      ("alloc_words", Json.Float s.alloc_words);
    ]
  in
  let track = if s.track = 0 then [] else [ ("track", Json.Int s.track) ] in
  let attrs =
    if s.attrs = [] then []
    else [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.attrs)) ]
  in
  let children =
    if s.children = [] then []
    else [ ("children", Json.List (List.map span_to_json s.children)) ]
  in
  Json.Obj (base @ track @ attrs @ children)

let to_json spans = Json.List (List.map span_to_json spans)

let human_words w =
  if Float.abs w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if Float.abs w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let pp fmt spans =
  let rec go depth s =
    let label = String.make (2 * depth) ' ' ^ s.name in
    let attrs =
      let kvs =
        (if s.track = 0 then [] else [ ("track", string_of_int s.track) ]) @ s.attrs
      in
      if kvs = [] then ""
      else
        "  {" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
    in
    Format.fprintf fmt "%-32s %9.3fs %10s%s@\n" label s.duration_s
      (human_words s.alloc_words) attrs;
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) spans

let print oc =
  let fmt = Format.formatter_of_out_channel oc in
  pp fmt (roots ());
  Format.pp_print_flush fmt ()
