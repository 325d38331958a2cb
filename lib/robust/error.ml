type stage =
  | Sat
  | Podem
  | Topoff
  | Kill
  | Vectorgen
  | Fsim
  | Equivalence
  | Parse
  | Report
  | Pipeline
  | Serve

let stage_name = function
  | Sat -> "sat"
  | Podem -> "podem"
  | Topoff -> "topoff"
  | Kill -> "kill"
  | Vectorgen -> "vectorgen"
  | Fsim -> "fsim"
  | Equivalence -> "equivalence"
  | Parse -> "parse"
  | Report -> "report"
  | Pipeline -> "pipeline"
  | Serve -> "serve"

type loc = { file : string option; line : int option }

type t =
  | Timeout of stage
  | Budget_exhausted of { stage : stage; resource : string }
  | Parse_error of { loc : loc; msg : string }
  | Aborted of stage
  | Injected of stage
  | Io_error of string
  | Overloaded of string
  | Protocol of string

exception E of t

let to_string = function
  | Timeout stage -> Printf.sprintf "%s: wall-clock deadline exceeded" (stage_name stage)
  | Budget_exhausted { stage; resource } ->
    Printf.sprintf "%s: %s budget exhausted" (stage_name stage) resource
  | Parse_error { loc; msg } ->
    let file = match loc.file with Some f -> f ^ ": " | None -> "" in
    let line = match loc.line with Some l -> Printf.sprintf "line %d: " l | None -> "" in
    (* Messages produced by the parsers already start with "line N:"
       when they are line-located; avoid stuttering in that case. *)
    let already_located =
      String.length msg >= 5 && String.sub msg 0 5 = "line "
    in
    if already_located then Printf.sprintf "%sparse error: %s" file msg
    else Printf.sprintf "%s%sparse error: %s" file line msg
  | Aborted stage -> Printf.sprintf "%s: aborted at stage-local limit" (stage_name stage)
  | Injected stage -> Printf.sprintf "%s: chaos-injected failure" (stage_name stage)
  | Io_error msg -> Printf.sprintf "i/o error: %s" msg
  | Overloaded msg -> Printf.sprintf "service overloaded: %s" msg
  | Protocol msg -> Printf.sprintf "protocol error: %s" msg

let ok_exn = function Ok v -> v | Error e -> raise (E e)

let exit_code = function
  | Parse_error _ -> 65
  | Overloaded _ -> 69
  | Io_error _ -> 74
  | Timeout _ -> 75
  | Budget_exhausted _ -> 76
  | Aborted _ -> 77
  | Injected _ -> 78
  | Protocol _ -> 79

let class_name = function
  | Timeout _ -> "timeout"
  | Budget_exhausted _ -> "budget"
  | Parse_error _ -> "parse"
  | Aborted _ -> "aborted"
  | Injected _ -> "injected"
  | Io_error _ -> "io"
  | Overloaded _ -> "overloaded"
  | Protocol _ -> "protocol"
