(** Immediate-dominator trees (Cooper–Harvey–Kennedy).

    Generic engine over an integer-indexed flow graph plus a netlist
    convenience computing {e post}-dominators toward the observation
    points: net [d] post-dominates net [s] when every path from [s] to
    any primary output (or flip-flop D pin) passes through [d] — so a
    fault effect originating at [s] can only be observed if it
    propagates through every post-dominator of [s]. The NL008 lint
    rule consumes exactly this fact. *)

type t = {
  n : int;  (** real node count; the virtual root is node [n] *)
  idom : int array;
      (** immediate dominator per node: a real node, [n] (the virtual
          root) when the node's paths only meet at the root, or [-1]
          when the node is unreachable from the root *)
  rpo : int array;  (** reverse-postorder number per node; [-1] unreachable *)
}

val compute : n:int -> succs:int list array -> roots:int list -> t
(** Dominators of the flow graph whose nodes are [0..n-1], with edges
    [succs] and a virtual root [n] that has an edge to every node in
    [roots]. Standard iterative CHK on the reverse postorder; nodes
    unreachable from the root get [idom = -1]. *)

val post : Mutsamp_netlist.Netlist.t -> t
(** Post-dominators of every net toward the observation points: the
    flow graph is the reversed netlist (an edge from each gate to each
    of its fanins) rooted at the nets driving primary outputs and
    flip-flop D pins. [idom.(v)] is the first net every
    fault-propagation path from [v] must cross; nets that reach no
    observation point (dead logic) get [-1]. *)

val dominators : t -> int -> int list
(** The strict dominator chain of a node, nearest first, virtual root
    excluded. Empty for roots and unreachable nodes. *)

val dominates : t -> int -> int -> bool
(** [dominates t d v]: does [d] (strictly or trivially, [d = v])
    dominate [v]? Linear in the chain length. *)
