(** Stimulus construction helpers.

    A stimulus assigns a value to every input of a design for one clock
    cycle (see {!Sim.stimulus}). These helpers build random vectors and
    decode flat integers into stimuli for state-space exploration. *)

val input_bits : Ast.design -> int
(** Total number of input bits. *)

val random : Mutsamp_util.Prng.t -> Ast.design -> Sim.stimulus
(** One uniformly random input vector. *)

val random_sequence : Mutsamp_util.Prng.t -> Ast.design -> int -> Sim.stimulus list
(** [random_sequence prng d n] is [n] independent random vectors. *)

val of_code : Ast.design -> int -> Sim.stimulus
(** Decode a flat integer (LSBs feed the first declared input) into a
    stimulus. Raises [Invalid_argument] if the design has more than 62
    input bits or the code is out of range. *)
