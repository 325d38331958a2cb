(** Pseudo-random pattern generation.

    Two generators of test-pattern codes:
    - {!lfsr_sequence}: a Fibonacci LFSR with a primitive feedback
      polynomial (the structure a BIST pattern generator would use);
    - {!uniform_sequence}: splitmix-based uniform codes.

    The paper's pseudo-random baselines use {!uniform_sequence} for the
    statistics and {!lfsr_sequence} where hardware plausibility
    matters; both are deterministic from their seed. *)

val max_lfsr_width : int

val lfsr_sequence : width:int -> seed:int -> length:int -> int array
(** [length] successive LFSR states, each masked to [width] bits
    (2..{!max_lfsr_width}; [Invalid_argument] outside that range). A
    zero [seed] is replaced by 1 (the all-zero state is absorbing). *)

val lfsr_period_is_maximal : width:int -> bool
(** Check (by iteration) that the polynomial for [width] really has
    period [2^width - 1]. Intended for tests on small widths; linear in
    the period. *)

val uniform_sequence :
  Mutsamp_util.Prng.t -> bits:int -> length:int -> Mutsamp_fault.Pattern.t array
(** Uniform [bits]-bit patterns from the given PRNG; any positive
    width. Raises [Invalid_argument] when [bits] is not positive. *)
