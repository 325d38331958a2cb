module Metrics = Mutsamp_obs.Metrics

(* Observability series (no-ops unless metrics collection is on). *)
let c_fired = Metrics.counter "robust.chaos_fired"

type point =
  | Sat_solve
  | Podem_search
  | Fsim_run
  | Vectorgen_directed
  | Kill_run
  | Report_write
  | Parse_input
  | Store_read

type action = Timeout | Exception | Truncate of int

exception Injected of string

let point_name = function
  | Sat_solve -> "sat"
  | Podem_search -> "podem"
  | Fsim_run -> "fsim"
  | Vectorgen_directed -> "vectorgen"
  | Kill_run -> "kill"
  | Report_write -> "report"
  | Parse_input -> "parse"
  | Store_read -> "store"

let stage_of_point = function
  | Sat_solve -> Error.Sat
  | Podem_search -> Error.Podem
  | Fsim_run -> Error.Fsim
  | Vectorgen_directed -> Error.Vectorgen
  | Kill_run -> Error.Kill
  | Report_write -> Error.Report
  | Parse_input -> Error.Parse
  | Store_read -> Error.Report

type arming = { mutable countdown : int; action : action }

let table : (point, arming) Hashtbl.t = Hashtbl.create 8

(* Worker domains hit injection points too; the mutex covers the
   countdown decrements. Arming happens on the main domain before
   workers exist, so the empty-table fast path — which every
   uninjected run takes — stays lock-free. *)
let mutex = Mutex.create ()

let disarm_all () = Hashtbl.reset table
let any_armed () = Hashtbl.length table > 0

let arm ?(after = 0) point action =
  Hashtbl.replace table point { countdown = after; action }

let fire point =
  if Hashtbl.length table = 0 then None
  else begin
    Mutex.protect mutex (fun () ->
        match Hashtbl.find_opt table point with
        | None -> None
        | Some a ->
          if a.countdown > 0 then begin
            a.countdown <- a.countdown - 1;
            None
          end
          else begin
            Metrics.incr c_fired;
            Some a.action
          end)
  end

let trip point =
  match fire point with
  | None -> Ok ()
  | Some Timeout -> Error (Error.Timeout (stage_of_point point))
  | Some (Truncate _) ->
    Error (Error.Io_error (Printf.sprintf "chaos: truncated %s" (point_name point)))
  | Some Exception ->
    raise (Injected (Printf.sprintf "chaos: injected exception at %s" (point_name point)))

let contain stage f =
  try Ok (f ()) with
  | Injected _ -> Error (Error.Injected stage)
  | Error.E e -> Error e

let parse_spec spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let point_of = function
    | "sat" -> Some Sat_solve
    | "podem" -> Some Podem_search
    | "fsim" -> Some Fsim_run
    | "vectorgen" -> Some Vectorgen_directed
    | "kill" -> Some Kill_run
    | "report" -> Some Report_write
    | "parse" -> Some Parse_input
    | "store" -> Some Store_read
    | _ -> None
  in
  let spec, after =
    match String.index_opt spec '@' with
    | None -> (spec, 0)
    | Some i ->
      let n = String.sub spec (i + 1) (String.length spec - i - 1) in
      (String.sub spec 0 i, match int_of_string_opt n with Some v when v >= 0 -> v | _ -> -1)
  in
  if after < 0 then fail "bad @AFTER count in %S" spec
  else
    match String.index_opt spec ':' with
    | None -> fail "chaos spec must be POINT:ACTION[@AFTER], got %S" spec
    | Some i ->
      let pname = String.sub spec 0 i in
      let aname = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match point_of pname with
       | None -> fail "unknown chaos point %S" pname
       | Some point ->
         let action =
           match aname with
           | "timeout" -> Some Timeout
           | "exn" | "exception" -> Some Exception
           | _ ->
             if String.length aname > 9 && String.sub aname 0 9 = "truncate=" then
               match int_of_string_opt (String.sub aname 9 (String.length aname - 9)) with
               | Some n when n >= 0 -> Some (Truncate n)
               | _ -> None
             else None
         in
         (match action with
          | None -> fail "unknown chaos action %S" aname
          | Some action ->
            arm ~after point action;
            Ok ()))
