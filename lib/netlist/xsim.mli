(** Three-valued (0/1/X) netlist simulation.

    Used for initialisation analysis: start every flip-flop at X, apply
    a candidate synchronising sequence, and observe which state bits
    become known. Values are encoded as a pair of lane masks
    [(zeros, ones)] — a lane with neither bit set is X; like
    {!Bitsim}, {!Bitsim.word_bits} patterns run in parallel.

    Pessimism note: the evaluation is gate-local ternary logic, so
    reconvergent X (e.g. [xor x x]) stays X even when the function is
    constant — standard for this kind of simulator. *)

type value = int * int
(** [(zeros, ones)] lane masks; a lane must not be set in both. *)

type t

val create : Netlist.t -> t
val x : value
val known : int -> value
(** [known word] is 0/1 per lane according to [word], nothing X. *)

val reset : t -> unit
(** Flip-flops to their declared reset values (all lanes known). *)

val reset_to_x : t -> unit
(** Flip-flops to X in every lane. *)

val step : t -> value array -> value array
(** One cycle; inputs and outputs in [input_nets]/[output_list] order.
    Raises [Invalid_argument] on arity mismatch or a malformed value. *)

val step_known : t -> int array -> value array
(** Convenience: fully-known input words (as for {!Bitsim.step}). *)

val unknown_dff_lanes : t -> int
(** Number of (flip-flop, lane) pairs still X. *)

val synchronizing_length :
  Netlist.t -> sequence:int array -> int option
(** Apply the sequence (one known pattern per cycle, lane 0 semantics)
    from the all-X state; [Some n] is the first cycle count after which
    every flip-flop is known, [None] if the sequence never fully
    synchronises the machine. *)
