(** Cycle-accurate simulator for elaborated designs.

    Semantics per clock cycle: inputs are sampled, variables reset to
    zero, outputs default to zero; the body executes in sequential
    order. Assignments to variables and outputs take effect
    immediately; assignments to registers are deferred to the end of
    the cycle, so every read of a register during the cycle observes
    its pre-cycle value. Registers start at their declared reset value
    and hold when not assigned.

    The simulator compiles the statement list to closures over integer
    arrays once per design, so stepping a design (and its thousands of
    mutants) costs no AST traversal. *)

type stimulus = (string * Mutsamp_util.Bitvec.t) list
(** Input values for one cycle. Every declared input must be present. *)

type observation = (string * Mutsamp_util.Bitvec.t) list
(** Output values after one cycle, in declaration order. *)

exception Sim_error of string

type t
(** A running instance with register state. *)

val create : Ast.design -> t
(** Compile a design. Raises {!Sim_error} if the design is not
    elaborated (see {!Check.elaborate}). *)

val reset : t -> unit
(** Return all registers to their reset values. *)

val step : t -> stimulus -> observation
(** Advance one clock cycle. Raises {!Sim_error} on a missing or
    unknown input name, or a width mismatch. *)

val state : t -> int array
(** The register values (after the last [step]), one per register in
    declaration order. *)

val set_state : t -> int array -> unit
(** Overwrite the register values with an array laid out as {!state}
    returns it, so the next [step] starts from that state (used by
    state-space exploration). Raises [Invalid_argument] if the array's
    length is not the number of registers. *)

val run : Ast.design -> stimulus list -> observation list
(** [create], [reset], then [step] through the whole stimulus. *)

val outputs_equal : observation -> observation -> bool
(** Structural comparison of two observations. *)
