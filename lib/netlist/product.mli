(** Breadth-first search of the product machine of two compiled
    {!Program}s, from their joint reset state. A joint state is the two
    programs' flip-flop values ({!Program.state_slots}). Each state, in
    the order states were reached, tries every input code in order, 63
    codes to a {!Program.step}, one per lane; a code whose outputs agree
    adds its next state, if new, before the next code is looked at, as
    a one-code-at-a-time search does. A register-free pair has one
    joint state: the search is then a sweep of the codes. *)

type inputs
(** Every code's input words: immutable, shared by searches on any
    domain. *)

val inputs : codes:int -> width:int -> (int -> (int -> unit) -> unit) -> inputs
(** [inputs ~codes ~width set]: codes [0 .. codes - 1] over [width]
    input bits; [set code f] calls [f k] for every bit [k] that is 1
    under [code]. *)

type outcome =
  | Equal  (** no reachable joint state and code tells the programs apart *)
  | Differs of int list
      (** the codes, cycle by cycle, of the first shortest sequence in
          search order after which the outputs differ *)
  | Exhausted  (** more than [max_states] joint states are reachable *)

val search : max_states:int -> inputs -> Program.t -> Program.t -> outcome * int
(** The outcome, and the joint states the search reached, the reset
    state included: at most [max_states]. Raises [Invalid_argument]
    when a program's input bits are not [width] or the two programs'
    output bits differ. *)
