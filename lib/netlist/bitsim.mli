(** Bit-parallel netlist simulation, width-parametric.

    Every net carries [words_per_net] native-int words of {!word_bits}
    independent simulation lanes each (lane [l] is bit [l mod word_bits]
    of word [l / word_bits]). For a combinational circuit one [step]
    evaluates [lanes t] patterns at once; for a sequential circuit the
    lanes are independent sequences advancing in lockstep, each with its
    own flip-flop state.

    Input and output arrays are flat: input [k]'s word [j] lives at
    index [k * words_per_net t + j], and likewise for outputs in
    [output_list] order. With the default single word per net the
    layout coincides with one word per input/output.

    The fault simulator also uses this engine with all lanes carrying
    the same pattern: good value vs faulty value then differ per lane
    only where a fault is injected. *)

val word_bits : int
(** Lanes per word (63 — the full OCaml native int). *)

val all_ones : int
(** Word with every lane set ([-1]). *)

type t

type injection =
  | Net of int  (** the whole net (stem fault) *)
  | Pin of { gate : int; pin : int }
      (** one gate's input pin (branch fault); for a flip-flop, pin 0 is
          the D input *)

val create : ?lanes:int -> Netlist.t -> t
(** [create ~lanes nl] sizes every net for at least [lanes] lanes
    (rounded up to whole words; default one word = {!word_bits}
    lanes). Raises [Invalid_argument] when [lanes < 1]. *)

val netlist : t -> Netlist.t

val lanes : t -> int
(** Usable lanes ([words_per_net * word_bits]). *)

val words_per_net : t -> int

val reset : t -> unit
(** Load every flip-flop's reset value into all lanes. *)

val step : t -> int array -> int array
(** [step t inputs] evaluates one cycle. [inputs] holds
    [words_per_net t] words per primary input, flat in [input_nets]
    order; the result holds the same per primary output, in
    [output_list] order. Flip-flops advance. Raises [Invalid_argument]
    on an input arity mismatch. *)

val step_with_fault : t -> int array -> fault_net:int -> stuck_value:int -> int array
(** Like {!step}, but after evaluating [fault_net] its value is forced
    to [stuck_value] (a full word: 0 or {!all_ones}, applied to every
    word) before propagating further, and the faulty flip-flop state
    evolves accordingly. [fault_net] may be any net, including a PI or
    DFF output. *)

val step_injected : t -> int array -> inj:injection -> stuck:int -> int array
(** Generalisation of {!step_with_fault} covering pin (branch)
    faults. *)

type lane_injection = {
  inj : injection;
  lanes : int array;
      (** which lanes this fault lives in: a bit mask of
          [words_per_net] words *)
  stuck : int;  (** 0 or {!all_ones}; applied only within [lanes] *)
}

val step_multi : t -> int array -> injections:lane_injection list -> int array
(** One cycle with several faults, each confined to its own lanes —
    the classical parallel-fault simulation step (one fault per lane;
    lanes without an injection run the good machine). Flip-flop state
    diverges per lane, so sequential circuits work naturally. *)

val net_values : t -> int array
(** A copy of all net words after the last step, flat per net
    (diagnostic use). *)

val net_word : t -> int -> int -> int
(** [net_word t net j]: word [j] of [net]'s value after the last step,
    without copying the whole net array. *)

val dff_states : t -> int array
(** Current flip-flop state words, [words_per_net] per flip-flop in
    [dff_nets] order — after a [step], the state the next cycle will
    start from. *)

val load_state : t -> int array -> unit
(** Overwrite every flip-flop's state with [words], in the {!dff_states}
    layout, so that each lane starts the next step from its own state
    (the parallel-fault simulator reloads diverged faulty states this
    way when it regroups faults into words). Raises [Invalid_argument]
    on a length mismatch. *)
