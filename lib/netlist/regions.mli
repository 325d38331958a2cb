(** Fanout-free regions, reconvergent stems and structural cone hashes.

    One {!compute} pass over a netlist yields the per-net structural
    facts the rest of the pipeline consumes: the fanout-free region
    partition (lint rule NL009, {!Stats}), reconvergent-stem
    classification (NL007, {!Stats}), and a Merkle-style
    content hash of every net's input cone. The cone hashes are the
    foundation of incremental store invalidation: a net's hash pins
    down the exact structure of the logic feeding it, so an edit
    elsewhere in the design leaves it — and every store entry keyed by
    it — untouched. [Mutsamp_core.Cache.cone_groups] builds the
    store's fault-sim keys on them; see docs/STORE.md. *)

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
  cone_hash : string array;
      (** hex digest of the net's input-cone structure. Primary
          inputs hash by position, constants by value, flip-flops by
          (init, position) as pseudo-sources — the hash never crosses
          a register — and gates by kind plus fanin hashes in literal
          pin order, so the hash also fixes which subtree each fault
          pin index refers to. *)
}

val compute : Netlist.t -> t

val net_tokens : Netlist.t -> int list -> string list
(** Human-usable names for a net set, sorted and deduplicated:
    primary-input names, [n<id>] labels (the Benchfmt convention) and
    the names of primary outputs driven by a net in the set. These are
    what [mutsamp store invalidate --cone NET] matches against. *)
