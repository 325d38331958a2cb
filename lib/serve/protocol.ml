module Json = Mutsamp_obs.Json
module Error = Mutsamp_robust.Error

type op =
  | Health
  | Stats
  | Sleep of { ms : int }
  | Faultsim of { circuit : string; vectors : int; lfsr : bool; seed : int }
  | Atpg of { circuit : string; generator : string; seed : int }
  | Table1 of { circuits : string list; quick : bool; seed : int }
  | Table2 of { circuits : string list; quick : bool; seed : int; repetitions : int }
  | Lint of { circuits : string list; strict : bool }

type request = {
  id : string;
  op : op;
  deadline_ms : int option;
  chaos : string list;
}

let op_name = function
  | Health -> "health"
  | Stats -> "stats"
  | Sleep _ -> "sleep"
  | Faultsim _ -> "faultsim"
  | Atpg _ -> "atpg"
  | Table1 _ -> "table1"
  | Table2 _ -> "table2"
  | Lint _ -> "lint"

let op_circuits = function
  | Health | Stats | Sleep _ -> []
  | Faultsim { circuit; _ } | Atpg { circuit; _ } -> [ circuit ]
  | Table1 { circuits; _ } | Table2 { circuits; _ } | Lint { circuits; _ } ->
    circuits

let op_seed = function
  | Health | Stats | Sleep _ | Lint _ -> None
  | Faultsim { seed; _ } | Atpg { seed; _ } | Table1 { seed; _ }
  | Table2 { seed; _ } ->
    Some seed

(* --- request parsing --------------------------------------------------- *)

let proto fmt = Printf.ksprintf (fun m -> Error (Error.Protocol m)) fmt
let ( let* ) r f = Result.bind r f

let opt_field doc name ~default ~conv =
  match Json.member name doc with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> proto "field %S has the wrong type" name)

let string_conv = function Json.String s -> Some s | _ -> None
let int_conv = function Json.Int i -> Some i | _ -> None
let bool_conv = function Json.Bool b -> Some b | _ -> None

let string_list_conv = function
  | Json.List items ->
    let rec all acc = function
      | [] -> Some (List.rev acc)
      | Json.String s :: rest -> all (s :: acc) rest
      | _ -> None
    in
    all [] items
  | _ -> None

let req_string doc name =
  match Json.member name doc with
  | Some (Json.String s) -> Ok s
  | Some _ -> proto "field %S must be a string" name
  | None -> proto "missing field %S" name

let parse_op doc =
  let* name = req_string doc "op" in
  match name with
  | "health" -> Ok Health
  | "stats" -> Ok Stats
  | "sleep" ->
    let* ms = opt_field doc "ms" ~default:100 ~conv:int_conv in
    if ms < 0 then proto "sleep: negative ms" else Ok (Sleep { ms })
  | "faultsim" ->
    let* circuit = req_string doc "circuit" in
    let* vectors = opt_field doc "vectors" ~default:256 ~conv:int_conv in
    let* lfsr = opt_field doc "lfsr" ~default:false ~conv:bool_conv in
    let* seed = opt_field doc "seed" ~default:2005 ~conv:int_conv in
    if vectors < 1 then proto "faultsim: vectors must be >= 1"
    else Ok (Faultsim { circuit; vectors; lfsr; seed })
  | "atpg" ->
    let* circuit = req_string doc "circuit" in
    let* generator =
      opt_field doc "generator" ~default:"podem" ~conv:string_conv
    in
    let* seed = opt_field doc "seed" ~default:2005 ~conv:int_conv in
    if generator <> "podem" && generator <> "sat" then
      proto "atpg: unknown generator %S (podem or sat)" generator
    else Ok (Atpg { circuit; generator; seed })
  | "table1" ->
    let* circuits = opt_field doc "circuits" ~default:[] ~conv:string_list_conv in
    let* quick = opt_field doc "quick" ~default:true ~conv:bool_conv in
    let* seed = opt_field doc "seed" ~default:2005 ~conv:int_conv in
    Ok (Table1 { circuits; quick; seed })
  | "table2" ->
    let* circuits = opt_field doc "circuits" ~default:[] ~conv:string_list_conv in
    let* quick = opt_field doc "quick" ~default:true ~conv:bool_conv in
    let* seed = opt_field doc "seed" ~default:2005 ~conv:int_conv in
    let* repetitions = opt_field doc "repetitions" ~default:5 ~conv:int_conv in
    if repetitions < 1 then proto "table2: repetitions must be >= 1"
    else Ok (Table2 { circuits; quick; seed; repetitions })
  | "lint" ->
    let* circuits = opt_field doc "circuits" ~default:[] ~conv:string_list_conv in
    let* strict = opt_field doc "strict" ~default:false ~conv:bool_conv in
    Ok (Lint { circuits; strict })
  | other -> proto "unknown op %S" other

let parse_request line =
  match Json.parse line with
  | Error msg -> proto "bad request JSON: %s" msg
  | Ok (Json.Obj _ as doc) ->
    let* id = opt_field doc "id" ~default:"" ~conv:string_conv in
    let* deadline_ms =
      opt_field doc "deadline_ms" ~default:None
        ~conv:(fun v -> Option.map Option.some (int_conv v))
    in
    let* chaos = opt_field doc "chaos" ~default:[] ~conv:string_list_conv in
    let* op = parse_op doc in
    Ok { id; op; deadline_ms; chaos }
  | Ok _ -> proto "request must be a JSON object"

(* --- replies ----------------------------------------------------------- *)

let ok_reply ~id ~op ?(extra = []) ?report ~output () =
  Json.Obj
    ([
       ("status", Json.String "ok");
       ("id", Json.String id);
       ("op", Json.String op);
       ("output", Json.String output);
     ]
    @ extra
    @ match report with None -> [] | Some r -> [ ("report", r) ])

let error_reply ~id e =
  Json.Obj
    [
      ("status", Json.String "error");
      ("id", Json.String id);
      ("class", Json.String (Error.class_name e));
      ("message", Json.String (Error.to_string e));
      ("exit_code", Json.Int (Error.exit_code e));
    ]

type reply =
  | Ok_reply of { id : string; op : string; output : string; report : Json.t option }
  | Error_reply of { id : string; class_ : string; message : string; exit_code : int }

let parse_reply line =
  match Json.parse line with
  | Error msg -> proto "bad reply JSON: %s" msg
  | Ok doc -> (
    let str name ~default =
      match Json.member name doc with Some (Json.String s) -> s | _ -> default
    in
    match Json.member "status" doc with
    | Some (Json.String "ok") ->
      Ok
        (Ok_reply
           {
             id = str "id" ~default:"";
             op = str "op" ~default:"";
             output = str "output" ~default:"";
             report = Json.member "report" doc;
           })
    | Some (Json.String "error") ->
      Ok
        (Error_reply
           {
             id = str "id" ~default:"";
             class_ = str "class" ~default:"io";
             message = str "message" ~default:"";
             exit_code =
               (match Json.member "exit_code" doc with
                | Some (Json.Int n) -> n
                | _ -> 74);
           })
    | _ -> proto "reply has no status field")
