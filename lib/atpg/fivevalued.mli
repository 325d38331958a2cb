(** Roth's five-valued D-calculus.

    A value combines the good-machine and faulty-machine bits:
    [D] is good 1 / faulty 0, [Dbar] good 0 / faulty 1, [X] unknown in
    both. The PODEM implementation evaluates the circuit in this algebra
    with the fault inserted at its site. *)

type t = Zero | One | X | D | Dbar

val good : t -> t
(** Good-machine projection: [Zero], [One] or [X]. *)

val faulty : t -> t
(** Faulty-machine projection. *)

val combine : t -> t -> t
(** [combine good faulty] from two projections (each [Zero]/[One]/[X]).
    Unknown in either projection yields [X]. *)

val lnot : t -> t
val land_ : t -> t -> t
val lor_ : t -> t -> t
val lxor_ : t -> t -> t
val eval : Mutsamp_netlist.Gate.kind -> t -> t -> t
(** Evaluate a combinational gate kind (raises [Invalid_argument] on
    [Pi]/[Const]/[Dff]): one read of {!table}. *)

val table : t array
(** The gate table, built once from the lifted operators above:
    [eval kind a b = table.(25 * row kind + 5 * index a + index b)] for
    every combinational kind and operand pair (unary kinds ignore [b]).
    A caller that evaluates many gates keeps [25 * row kind] per gate
    and reads the table itself, with no call per gate. Never written. *)

val row : Mutsamp_netlist.Gate.kind -> int
(** The kind's row of {!table}, 0 .. 7 (raises [Invalid_argument] on
    [Pi]/[Const]/[Dff]). *)

external index : t -> int = "%identity"
(** The value's position in the declaration of {!t}, 0 ([Zero]) to 4
    ([Dbar]): constant constructors are exactly those immediates, so the
    conversion costs nothing. *)

val is_error : t -> bool
(** [D] or [Dbar]: the fault effect is present. *)

val of_bool : bool -> t
val to_string : t -> string
val controlling_value : Mutsamp_netlist.Gate.kind -> bool option
(** The input value that forces the gate output regardless of the other
    input: 0 for AND/NAND, 1 for OR/NOR, none for XOR/XNOR/NOT/BUF. *)

val inverts : Mutsamp_netlist.Gate.kind -> bool
(** Whether the gate output is the complement of its (controlled)
    function: true for NOT, NAND, NOR, XNOR. *)
