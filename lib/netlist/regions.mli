(** Fanout-free regions and reconvergent stems.

    One {!compute} pass over a netlist yields the per-net structural
    facts that {!Stats} and the lint rules read: the fanout-free region
    partition (NL009) and reconvergent-stem classification (NL007). *)

type t = {
  head : int array;
      (** fanout-free-region head per net: the first net at or after
          this one with multiple fanouts, a primary-output use, or a
          flip-flop D pin use *)
  region_count : int;  (** distinct heads *)
  max_region_size : int;  (** most logic gates sharing one head *)
  reconvergent : bool array;
      (** per net: is this a multi-fanout stem whose branches meet
          again downstream? *)
  reconvergence_count : int;  (** number of reconvergent stems *)
}

val compute : Netlist.t -> t
