(** Arbitrary-width unsigned bit vectors.

    Values model the word-level data of the behavioural HDL: a width in
    bits (>= 1) and an unsigned payload stored as 63-bit limbs in the
    {!Packvec} layout. All arithmetic wraps modulo [2^width], as VHDL
    [unsigned] arithmetic does after resizing. There is no upper width
    limit; only {!to_int} requires the value to fit a native integer. *)

type t
(** A bit vector: width plus payload. Structural equality compares both. *)

val make : width:int -> int -> t
(** [make ~width v] is [v] truncated to [width] bits. Raises
    [Invalid_argument] if [width < 1] or [v] is negative. *)

val zero : int -> t
(** [zero width] is the all-zero vector. *)

val ones : int -> t
(** [ones width] is the all-one vector. *)

val init : int -> (int -> bool) -> t
(** [init width f] sets bit [i] to [f i]. *)

val width : t -> int

val to_int : t -> int
(** The payload as a native integer. Raises [Invalid_argument] when
    [width > 62]; use {!bit} for wide vectors. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Orders by width, then unsigned value. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (LSB is 0). Raises [Invalid_argument] if [i] is
    out of range. *)

val set_bit : t -> int -> bool -> t

(** Arithmetic (wrapping, operands must have equal width). *)

val add : t -> t -> t
val sub : t -> t -> t

(** Bitwise logic (operands must have equal width). *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** Comparisons as unsigned integers (operands must have equal width). *)

val lt : t -> t -> bool
val le : t -> t -> bool

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] is bits [hi..lo] inclusive, width [hi-lo+1]. *)

val concat : t -> t -> t
(** [concat hi lo] juxtaposes: result width is the sum, [hi] in the upper
    bits. *)

val resize : t -> int -> t
(** [resize v w] zero-extends or truncates to width [w]. *)

val to_string : t -> string
(** Binary literal, MSB first, e.g. ["5'b01101"]. *)

val pp : Format.formatter -> t -> unit
