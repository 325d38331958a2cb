(** Gate-level netlists and the builder that constructs them.

    The builder hash-conses combinational gates (structural hashing with
    operand normalisation for the symmetric gates) and performs local
    constant folding and idempotence rewrites, so synthesised netlists
    carry no trivially redundant logic. Flip-flops break the feedback
    loops: they are created with a dangling D pin that is connected
    after the next-state logic exists. *)

type t = {
  name : string;
  gates : Gate.t array;  (** net id = array index *)
  input_nets : int array;  (** in creation order *)
  output_list : (string * int) array;  (** PO name, driving net *)
  dff_nets : int array;  (** nets driven by flip-flops *)
}

exception Lint_error of string

val input_names : t -> string array

val port_names : t -> string array * string array
(** The input and the output names, each in port order: the interface
    two netlists must share to be driven by the same input words and
    compared output by output. *)

val num_gates : t -> int
(** Total nets, inputs and constants included. *)

val num_logic_gates : t -> int
(** Combinational gates only (no PI, constants or DFFs). *)

val num_dffs : t -> int

val fanouts : t -> int list array
(** [fanouts nl] maps every net to the gates it feeds (DFF D pins
    included). *)

val is_logic : Gate.kind -> bool
(** True for the combinational gates: not [Pi], [Const] or [Dff]. *)

val in_net_order : t -> bool
(** Whether every combinational gate reads only lower-numbered nets, as
    every netlist the builder (and {!Sweep}) produces does. Net order
    is then a topological order of the combinational gates. *)

val lint : t -> unit
(** Validate: fanin arities match gate kinds, fanin ids are in range,
    no combinational cycles, every output name unique. Raises
    {!Lint_error}. *)

(** {1 Building} *)

(** A builder keeps each gate as one int in a growable array indexed by
    net id, packing its kind and both fanin ids, and finds existing
    gates in an open-addressing table of net ids keyed by that packed
    int. The two constant nets are cached. No [Gate.t] exists until
    {!finalize}, which allocates each one once. Nets are numbered in
    creation order, so every combinational gate reads only
    lower-numbered nets ({!in_net_order}).

    Net ids must fit the packed gate: a builder holds fewer than 2{^29}
    nets, and creating one more raises [Invalid_argument]. Operand net
    ids outside [0, nets created) raise [Invalid_argument]. *)
module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  val input : t -> string -> int
  (** Declare a primary input. Raises [Invalid_argument] on a duplicate
      name. *)

  val const : t -> bool -> int
  val buf : t -> int -> int
  val not_ : t -> int -> int
  val and_ : t -> int -> int -> int
  val or_ : t -> int -> int -> int
  val nand_ : t -> int -> int -> int
  val nor_ : t -> int -> int -> int
  val xor_ : t -> int -> int -> int
  val xnor_ : t -> int -> int -> int

  val mux : t -> sel:int -> t1:int -> t0:int -> int
  (** [mux ~sel ~t1 ~t0] is [sel ? t1 : t0], built from basic gates. *)

  val dff : t -> init:bool -> int
  (** New flip-flop with a dangling D pin; connect it with
      {!connect_dff} before {!finalize}. *)

  val connect_dff : t -> int -> d:int -> unit
  (** Connect the D pin of flip-flop net [q]. Raises [Invalid_argument]
      if [q] is not a flip-flop or is already connected. *)

  val output : t -> string -> int -> unit
  (** Name a primary output. Raises [Invalid_argument] on duplicates. *)

  val finalize : t -> netlist
  (** Freeze and lint. Raises {!Lint_error} (e.g. an unconnected DFF). *)
end
