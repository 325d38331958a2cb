(** Test patterns over a netlist's primary inputs.

    A pattern is a {!Mutsamp_util.Packvec} whose width is the number of
    primary inputs, bit [k] feeding input [k] in [input_nets] order.
    This replaces the historical flat integer codes and removes their
    62-input ceiling; {!of_code} remains as a convenience for
    narrow circuits and external formats. *)

type t = Mutsamp_util.Packvec.t

val num_inputs : Mutsamp_netlist.Netlist.t -> int
(** Number of primary inputs — the width patterns for that netlist
    must have. *)

val zero : inputs:int -> t
val init : inputs:int -> (int -> bool) -> t

val of_code : inputs:int -> int -> t
(** Spread an integer code (bit [k] -> input [k]). Codes carry at most
    62 payload bits; wider patterns need {!init}/{!set}. *)

val width : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val equal : t -> t -> bool

val random : Mutsamp_util.Prng.t -> inputs:int -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
