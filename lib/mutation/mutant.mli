(** A single mutant: one syntactic fault injected into a design. *)

type settled = {
  against : Mutsamp_hdl.Ast.design;
      (** the reference design of the oracle that decided it; only an
          oracle whose design is physically equal ([==]) reads it *)
  witness : Mutsamp_hdl.Sim.stimulus list option;
      (** [None]: equivalent; [Some seq]: the distinguishing sequence *)
  structural : bool;
      (** the mutant's netlist equals the reference netlist, so no
          solve ran *)
}
(** A conclusive equivalence verdict, as {!Equivalence.decide} keeps
    it. *)

type slot =
  | Open  (** not decided yet, or decided inconclusively *)
  | Deciding of Mutex.t
      (** a decide is running and holds the mutex; concurrent decides
          of this mutant wait on it *)
  | Settled of settled

type t = {
  id : int;  (** index within the design's full mutant list *)
  op : Operator.t;
  site : int;  (** pre-order node index of the mutated AST node *)
  info : string;  (** human-readable description of the change *)
  design : Mutsamp_hdl.Ast.design;  (** the mutated design, still elaborated *)
  program : Mutsamp_netlist.Program.t option Atomic.t;
      (** the design's synthesized netlist compiled to a program,
          written once by the first {!Kill.make} or {!Kill.program}
          that needs it and shared by every later reader *)
  verdict : slot Atomic.t;
      (** the equivalence verdict, settled once by the first
          conclusive {!Equivalence.decide} and returned by every later
          decide against the same reference design *)
}

val make :
  id:int -> op:Operator.t -> site:int -> info:string -> Mutsamp_hdl.Ast.design -> t
(** A mutant with an empty [program] slot and an [Open] verdict. *)

val pp : Format.formatter -> t -> unit
(** One line: id, operator, description. *)

val to_string : t -> string
