(** The one port map between a design and its synthesized netlist.

    Synthesis expands each HDL port into bit-level nets named by
    {!Lower.bit_name}. {!make} finds, once, the position of every port
    bit among the netlist's inputs and outputs; every other layer works
    on those positions. {!set_inputs} places a word-level stimulus on
    the netlist's input positions, {!stimulus_of_inputs} reads one back,
    and {!pack_stimulus}/{!unpack_outputs} drive
    {!Mutsamp_netlist.Bitsim}, so the same test data drives both the
    behavioural and the gate-level model.

    Every stimulus passes one check, in {!set_inputs}: each design input
    present with its declared width, and no entry naming anything else.
    A stimulus that fails it raises {!Mapping_error}. *)

type t
(** A prepared mapping between one design and one netlist. *)

exception Mapping_error of string

val make : Mutsamp_hdl.Ast.design -> Mutsamp_netlist.Netlist.t -> t
(** Build the port correspondence. Raises {!Mapping_error} when the
    netlist's interface does not match the design's. *)

val netlist : t -> Mutsamp_netlist.Netlist.t

val set_inputs : t -> Mutsamp_hdl.Sim.stimulus -> (int -> unit) -> unit
(** [set_inputs t stim f] calls [f k] for every netlist input position
    [k] (an index into [input_nets]) whose bit is 1 under [stim], in
    the design's input declaration order. Raises {!Mapping_error} when
    [stim] misses an input, gives one the wrong width, or names
    something that is not an input. *)

val stimulus_of_inputs : t -> (int -> bool) -> Mutsamp_hdl.Sim.stimulus
(** The inverse of {!set_inputs}: the stimulus whose bit at netlist
    input position [k] is [get k], one entry per design input in
    declaration order. *)

val pack_stimulus : t -> Mutsamp_hdl.Sim.stimulus -> int array
(** One stimulus replicated across every lane of the per-input word
    array for [Bitsim.step] (the form fault simulation wants: all lanes
    identical, divergence marks detection). Raises {!Mapping_error} as
    {!set_inputs} does. *)

val unpack_outputs : t -> int array -> lane:int -> Mutsamp_hdl.Sim.observation
(** Word-level observation of one lane of a [Bitsim.step] result. *)
