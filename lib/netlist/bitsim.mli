(** Bit-parallel netlist simulation, one word per net.

    Every net carries one native-int word of {!word_bits} independent
    simulation lanes (lane [l] is bit [l]). For a combinational circuit
    one [step] evaluates 63 patterns at once; for a sequential circuit
    the lanes are independent sequences advancing in lockstep, each with
    its own flip-flop state.

    Input arrays hold one word per primary input, in [input_nets]
    order; output arrays one word per primary output, in [output_list]
    order.

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

val create : Netlist.t -> t

val netlist : t -> Netlist.t

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

type lane_injection = {
  inj : injection;
  lanes : int;  (** bit mask of the lanes this fault lives in *)
  stuck : int;  (** 0 or {!all_ones}; applied only within [lanes] *)
}

val step_multi : t -> int array -> injections:lane_injection list -> int array
(** One cycle with several faults, each confined to its own lanes —
    the classical parallel-fault simulation step (one fault per lane;
    lanes without an injection run the good machine). Flip-flop state
    diverges per lane, so sequential circuits work naturally. *)

val net_values : t -> int array
(** A copy of all net words after the last step, one per net
    (diagnostic use). *)

val net_word : t -> int -> int
(** [net_word t net]: [net]'s word after the last step, without copying
    the whole net array. *)

val dff_states : t -> int array
(** Current flip-flop state words, one per flip-flop in [dff_nets]
    order — after a [step], the state the next cycle will start
    from. *)

val load_state : t -> int array -> unit
(** Overwrite every flip-flop's state with [words], in the {!dff_states}
    layout, so that each lane starts the next step from its own state
    (the parallel-fault simulator reloads diverged faulty states this
    way when it regroups faults into words). Raises [Invalid_argument]
    on a length mismatch. *)
