(** Single stuck-at faults on gate-level netlists.

    The full fault list contains, for both polarities:
    - a {e stem} fault on every net (primary inputs, gate outputs,
      flip-flop outputs) except constant tie-offs, and
    - a {e branch} fault on every gate input pin whose driving net
      fans out to more than one sink (pins on single-fanout nets are
      indistinguishable from the stem and are left to the stem fault).

    This is the classical structural fault universe on which
    equivalence collapsing (see {!Collapse}) operates. *)

type polarity = Stuck_at_0 | Stuck_at_1

type site =
  | Stem of int  (** net id *)
  | Branch of { gate : int; pin : int }

type t = { site : site; polarity : polarity }

val full_list : Mutsamp_netlist.Netlist.t -> t list
(** Deterministic order: stems by net id then branches by (gate, pin),
    stuck-at-0 before stuck-at-1 at each site. *)

val injection : t -> Mutsamp_netlist.Bitsim.injection
(** The {!Mutsamp_netlist.Bitsim} injection realising this fault. *)

val stuck_word : t -> int
(** The forcing word: 0 or [Bitsim.all_ones]. *)

val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
