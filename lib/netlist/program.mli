(** A netlist compiled to a flat, bit-parallel program.

    {!of_netlist} flattens a netlist into straight-line code over one
    scratch array of native-int words. Every word carries {!lanes}
    independent simulation lanes, so one {!step} advances up to 63
    input sequences by one clock cycle, each lane with its own
    flip-flop state.

    Each gate is one int code word: a 3-bit opcode, then the slots of
    its two operands and of its destination in three 20-bit fields
    ({!encode}); {!exec} and {!exec_range} share the one loop that
    evaluates such code.
    The program keeps no netlist and no per-net data: the gate code,
    plus one int per flip-flop D input, constant or reset word and
    output bit. Every net has its own slot; {!layout} gives the map,
    in this order:
    - the input bits, in [input_nets] order;
    - one Q slot per flip-flop, in [dff_nets] order;
    - one slot per combinational gate, in topological order, which is
      also the order of the gate code;
    - one slot per constant net, in net order;
    - one pending next-state slot per flip-flop.

    Outputs are read in [output_list] order. *)

val lanes : int
(** Lanes per word (63). *)

type layout = {
  order : int array;  (** combinational gates, topological *)
  slot : int array;  (** per net: its scratch slot *)
}

val layout : Netlist.t -> layout
(** The slot map {!of_netlist} compiles against. Raises
    [Invalid_argument] when the netlist needs more than 2{^20} slots
    or a primary input is missing from [input_nets]. *)

val encode : Netlist.t -> int array -> int -> int
(** [encode nl slot net]: the code word of combinational gate [net]
    under the slot map [slot]. *)

val exec : int array -> int array -> unit
(** [exec code v] evaluates the code words in order over [v]. Every
    slot they name must lie inside [v]; accesses are unchecked. *)

type t

val of_netlist : Netlist.t -> t
(** Flatten. Raises [Invalid_argument] as {!layout} does. *)

val of_layout : Netlist.t -> layout -> t
(** Flatten against a layout the caller already holds; it must be
    [layout nl] for the same netlist. *)

val input_bits : t -> int
val output_bits : t -> int

val gates : t -> int
(** Gate code words: one per combinational gate, in [layout]'s
    [order]. *)

val words : t -> int
(** Scratch words {!reset} and {!step} need. *)

val state_slots : t -> int * int
(** [(first, count)]: the flip-flops' state slots, in [dff_nets] order.
    {!reset} and each {!step} leave the next state there, and the next
    {!step} starts from what they hold, so a caller may overwrite them. *)

val reset : t -> int array -> unit
(** Load the constants and put every flip-flop of every lane at its
    reset value. [scratch] must hold at least {!words} words; one
    scratch array can serve programs in turn, each from its own
    [reset]. *)

val step : t -> int array -> int array -> int -> unit
(** [step t scratch inputs pos] runs one cycle: the flip-flops take
    their pending state, the input bits are read from
    [inputs.(pos) .. inputs.(pos + input_bits t - 1)], and every gate is
    evaluated. Outputs stay readable until the next [step]. *)

val exec_range : t -> int -> int -> int array -> unit
(** [exec_range t lo hi scratch] evaluates gates [lo .. hi - 1] of the
    program's own code over [scratch], as {!step} does between loading
    the flip-flops and latching their next state: a caller that stops
    between gates may override slots before the rest run. Raises
    [Invalid_argument] when [lo < 0], [hi > gates t] or [scratch] is
    shorter than {!words}. *)

val outputs : t -> int array -> int array -> int -> unit
(** [outputs t scratch dst pos] writes the output words of the last
    [step] to [dst.(pos) ..], in output order. *)

val mismatch : t -> int array -> int array -> int -> int
(** [mismatch t scratch expected pos]: the lanes where some output in
    [scratch] (after a [step], or after {!exec_range} up to the last
    gate) differs from [expected.(pos) ..] (as written by {!outputs}
    of another program over the same inputs). *)
