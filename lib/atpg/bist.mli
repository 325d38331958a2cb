(** Built-in self-test emulation: LFSR pattern generation plus MISR
    response compaction.

    A BIST session applies [length] LFSR patterns and folds every
    output response into a multiple-input signature register; a fault
    is caught when the final faulty signature differs from the good
    one. Compaction can alias (a faulty response folding to the good
    signature); {!run} reports both the signature coverage and the
    true comparison coverage so the aliasing loss is visible. *)

type signature = int

val misr_step : width:int -> taps:int list -> signature -> int -> signature
(** One MISR clock: shift with LFSR feedback, XOR the response word in.
    [width] caps the register (≤ 62); [taps] as in {!Prpg.lfsr_taps}. *)

val misr_signature : width:int -> taps:int list -> int list -> signature
(** Fold a whole response stream (initial signature 0). *)

val misr_absorb :
  width:int -> taps:int list -> signature -> Mutsamp_util.Packvec.t -> signature
(** Absorb a packed response of any output count, one MISR clock per
    63-bit word — coincides with {!misr_step} on word 0 when the
    response fits one word. *)

type report = {
  patterns : int;
  good_signature : signature;
  signature_detected : int;  (** faults whose final signature differs *)
  comparison_detected : int;  (** faults a per-pattern comparison catches *)
  aliased : int;  (** detected by comparison but masked in the signature *)
  total_faults : int;
}

val run :
  Mutsamp_netlist.Netlist.t ->
  faults:Mutsamp_fault.Fault.t list ->
  seed:int ->
  length:int ->
  report
(** Emulate a session on a combinational netlist (raises
    [Invalid_argument] on sequential ones — scan them first). The MISR
    is 16 bits wide. *)
