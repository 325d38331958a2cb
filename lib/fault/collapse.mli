(** Fault-equivalence collapsing.

    Two faults are structurally equivalent when every test for one is a
    test for the other. The classical gate-local rules are applied:

    - AND: any input stuck-at-0 ≡ output stuck-at-0 (dually NAND → output
      stuck-at-1);
    - OR: any input stuck-at-1 ≡ output stuck-at-1 (dually NOR → output
      stuck-at-0);
    - NOT/BUF: each input fault ≡ the (inverted/same) output fault;
    - a fault on a single-fanout stem ≡ the same fault seen at the one
      pin it feeds, so the pin-side rules apply through it.

    Classes are built with union–find; the collapsed list keeps one
    representative per class. *)

type t = {
  representatives : Fault.t list;  (** one fault per equivalence class *)
  class_of : Fault.t -> Fault.t;  (** representative of any full-list fault *)
  full_size : int;
  collapsed_size : int;
}

val run : Mutsamp_netlist.Netlist.t -> t
(** Collapse the {!Fault.full_list} of the netlist. *)

val ratio : t -> float
(** [collapsed_size / full_size]. *)
