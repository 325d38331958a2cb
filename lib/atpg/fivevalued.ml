module Gate = Mutsamp_netlist.Gate

type t = Zero | One | X | D | Dbar

let good = function
  | Zero -> Zero | One -> One | X -> X | D -> One | Dbar -> Zero

let faulty = function
  | Zero -> Zero | One -> One | X -> X | D -> Zero | Dbar -> One

let combine g f =
  match g, f with
  | X, _ | _, X -> X
  | One, One -> One
  | Zero, Zero -> Zero
  | One, Zero -> D
  | Zero, One -> Dbar
  | (D | Dbar), _ | _, (D | Dbar) -> invalid_arg "Fivevalued.combine: projections only"

let not2 = function Zero -> One | One -> Zero | X -> X | D | Dbar -> assert false

let and2 a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, o | o, One -> o
  | X, X -> X
  | _ -> assert false

let or2 a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, o | o, Zero -> o
  | X, X -> X
  | _ -> assert false

let xor2 a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, o | o, Zero -> o
  | One, One -> Zero
  | _ -> assert false

(* Lift a two-valued-with-X function to the five-valued domain by
   applying it to both projections. *)
let lift2 f a b = combine (f (good a) (good b)) (f (faulty a) (faulty b))
let lift1 f a = combine (f (good a)) (f (faulty a))

let lnot a = lift1 not2 a
let land_ a b = lift2 and2 a b
let lor_ a b = lift2 or2 a b
let lxor_ a b = lift2 xor2 a b

(* Gate kinds as table rows; sources and flip-flops have none. *)
let row = function
  | Gate.Buf -> 0
  | Gate.Not -> 1
  | Gate.And -> 2
  | Gate.Or -> 3
  | Gate.Nand -> 4
  | Gate.Nor -> 5
  | Gate.Xor -> 6
  | Gate.Xnor -> 7
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ ->
    invalid_arg "Fivevalued.eval: not a combinational gate"

(* Constant constructors are the immediates 0 .. 4 in declaration
   order. *)
external index : t -> int = "%identity"

let lifted kind a b =
  match kind with
  | Gate.Buf -> a
  | Gate.Not -> lnot a
  | Gate.And -> land_ a b
  | Gate.Or -> lor_ a b
  | Gate.Nand -> lnot (land_ a b)
  | Gate.Nor -> lnot (lor_ a b)
  | Gate.Xor -> lxor_ a b
  | Gate.Xnor -> lnot (lxor_ a b)
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> assert false

(* Every gate kind over every operand pair: entry
   [25 * row kind + 5 * index a + index b]. Unary rows ignore [b]. *)
let table =
  let values = [ Zero; One; X; D; Dbar ] in
  let t = Array.make (8 * 25) X in
  List.iter
    (fun kind ->
      List.iter
        (fun a ->
          List.iter
            (fun b -> t.((25 * row kind) + (5 * index a) + index b) <- lifted kind a b)
            values)
        values)
    [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ];
  t

let eval kind a b = table.((25 * row kind) + (5 * index a) + index b)

let is_error = function D | Dbar -> true | Zero | One | X -> false

let of_bool b = if b then One else Zero

let to_string = function
  | Zero -> "0" | One -> "1" | X -> "X" | D -> "D" | Dbar -> "D'"

let controlling_value = function
  | Gate.And | Gate.Nand -> Some false
  | Gate.Or | Gate.Nor -> Some true
  | Gate.Xor | Gate.Xnor | Gate.Buf | Gate.Not -> None
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> None

let inverts = function
  | Gate.Not | Gate.Nand | Gate.Nor | Gate.Xnor -> true
  | Gate.Buf | Gate.And | Gate.Or | Gate.Xor -> false
  | Gate.Pi _ | Gate.Const _ | Gate.Dff _ -> false
