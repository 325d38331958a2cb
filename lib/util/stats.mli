(** Small numeric helpers shared by the metrics and report code. *)

val mean : float list -> float
(** Arithmetic mean. Returns [nan] on the empty list. *)

val stddev : float list -> float
(** Population standard deviation. Returns [nan] on the empty list. *)

val median : float list -> float
(** Median (mean of the middle pair for even lengths). Returns [nan] on
    the empty list. *)

val percent : num:int -> den:int -> float
(** [percent ~num ~den] is [100 * num / den] as a float; [0.] when
    [den = 0]. *)

val round2 : float -> float
(** Round to two decimal places (used when printing paper-style tables). *)

val largest_remainder : total:int -> float array -> int array
(** [largest_remainder ~total weights] apportions [total] integer units
    proportionally to the non-negative [weights] using the
    largest-remainder (Hamilton) method, so the result sums exactly to
    [total]. All-zero weights degrade to an even split. *)
