(** A design compiled to a flat, bit-parallel program.

    {!compile} synthesizes the design ({!Mutsamp_synth.Flow.synthesize})
    and flattens the netlist into straight-line code over one scratch
    array of native-int words. Every word carries {!lanes} independent
    simulation lanes, so one {!step} advances up to 63 input sequences
    by one clock cycle, each lane with its own flip-flop state.

    The program keeps no netlist: one int per gate (opcode and two
    fanin slots), plus a slot per flip-flop D input, reset word and
    output bit. Slot layout of the scratch array:
    - [0] and [1]: the constants 0 and all-ones;
    - the design's input bits, in port declaration order (bit 0 of the
      first declared input first);
    - one Q slot per flip-flop;
    - one slot per gate, in topological order;
    - one pending next-state slot per flip-flop.

    Inputs and outputs are numbered by design port bits, not netlist
    nets, so every mutant of a design reads the same packed input words
    and is compared output bit by output bit against the original. *)

val lanes : int
(** Lanes per word (63). *)

type t

val compile : Mutsamp_hdl.Ast.design -> t
(** Synthesize and flatten. Raises {!Mutsamp_synth.Lower.Synth_error}
    when the design is not elaborated or the netlist's ports do not
    match the design's. *)

val input_bits : t -> int
val output_bits : t -> int

val words : t -> int
(** Scratch words {!reset} and {!step} need. *)

val reset : t -> int array -> unit
(** Put every flip-flop of every lane at its reset value. [scratch]
    must hold at least {!words} words; one scratch array can serve
    programs in turn, each from its own [reset]. *)

val step : t -> int array -> int array -> int -> unit
(** [step t scratch inputs pos] runs one cycle: the flip-flops take
    their pending state, the input bits are read from
    [inputs.(pos) .. inputs.(pos + input_bits t - 1)], and every gate is
    evaluated. Outputs stay readable until the next [step]. *)

val outputs : t -> int array -> int array -> int -> unit
(** [outputs t scratch dst pos] writes the output words of the last
    [step] to [dst.(pos) ..], in port-bit order. *)

val mismatch : t -> int array -> int array -> int -> int
(** [mismatch t scratch expected pos]: the lanes where some output of
    the last [step] differs from [expected.(pos) ..] (as written by
    {!outputs} of another program over the same inputs). *)
