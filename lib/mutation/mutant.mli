(** A single mutant: one syntactic fault injected into a design. *)

type t = {
  id : int;  (** index within the design's full mutant list *)
  op : Operator.t;
  site : int;  (** pre-order node index of the mutated AST node *)
  info : string;  (** human-readable description of the change *)
  design : Mutsamp_hdl.Ast.design;  (** the mutated design, still elaborated *)
  program : Mutsamp_netlist.Program.t option Atomic.t;
      (** the design's synthesized netlist compiled to a program,
          written once by the first {!Kill.make} that needs it and
          shared by every later one *)
}

val pp : Format.formatter -> t -> unit
(** One line: id, operator, description. *)

val to_string : t -> string
