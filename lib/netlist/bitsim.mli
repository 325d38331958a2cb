(** Bit-parallel netlist simulation, one word per net: the reference
    evaluator.

    Every net carries one native-int word of {!word_bits} independent
    simulation lanes (lane [l] is bit [l]). For a combinational circuit
    one [step] evaluates 63 patterns at once; for a sequential circuit
    the lanes are independent sequences advancing in lockstep, each with
    its own flip-flop state.

    Input arrays hold one word per primary input, in [input_nets]
    order; output arrays one word per primary output, in [output_list]
    order.

    {!step} and {!step_injected} are the reference that the compiled
    {!Program} and the fault simulator's backends are tested against,
    and that the serial fault simulator runs. Scan-pattern replay and
    waveform dumps also simulate here, since they read every net's
    word and the flip-flop state. *)

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

val create : Netlist.t -> t

val reset : t -> unit
(** Load every flip-flop's reset value into all lanes. *)

val step : t -> int array -> int array
(** [step t inputs] evaluates one cycle. [inputs] holds one word per
    primary input, in [input_nets] order; the result holds one word per
    primary output, in [output_list] order. Flip-flops advance. Raises
    [Invalid_argument] on an input arity mismatch. *)

val step_injected : t -> int array -> inj:injection -> stuck:int -> int array
(** Like {!step}, but with one stuck-at fault in every lane: after
    evaluating the injection site, its value — the whole net, or the
    one gate pin — is forced to [stuck] (a full word: 0 or
    {!all_ones}) before propagating further, and the faulty flip-flop
    state evolves accordingly. A [Net] site may be any net, including a
    PI or DFF output. *)

val net_values : t -> int array
(** A copy of all net words after the last step, one per net
    (diagnostic use). *)

val dff_states : t -> int array
(** Current flip-flop state words, one per flip-flop in [dff_nets]
    order — after a [step], the state the next cycle will start
    from. *)
