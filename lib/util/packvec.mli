(** Arbitrary-width packed bit vectors: the pattern type.

    A vector of [width] bits stored as [ceil (width / 63)] native-int
    words, 63 payload bits per word, LSB first (bit [i] lives in word
    [i / 63], bit [i mod 63]). Fault-simulation patterns are vectors
    over a netlist's primary inputs, of any input count; [Bitvec]
    shares the word layout for word-level arithmetic.

    Unused high bits of the last word are kept zero by every operation
    here, so {!equal} compares words directly; writers that touch
    {!words} directly must preserve that invariant (mask with
    {!last_mask}). *)

val word_bits : int
(** Payload bits per word (63). *)

type t = { width : int; words : int array }

val words_for : int -> int
(** [words_for width] is the number of words a [width]-bit vector
    occupies. *)

val last_mask : int -> int
(** Mask of the valid bits in the last word of a [width]-bit vector
    ([-1] when the width is a multiple of {!word_bits}). *)

val create : int -> t
(** All-zero vector. Raises [Invalid_argument] when [width < 1]. *)

val init : int -> (int -> bool) -> t
(** [init width f] sets bit [i] to [f i]. *)

val width : t -> int
val words : t -> int array
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit
(** Bit access; raise [Invalid_argument] out of range. [set] mutates. *)

val equal : t -> t -> bool

val of_code : width:int -> int -> t
(** Spread a non-negative integer code over the low bits (codes carry
    at most 62 payload bits; higher bits of the vector are zero). *)

val to_code : t -> int
(** Inverse of {!of_code}; raises [Invalid_argument] when [width > 62]. *)

val random : Prng.t -> int -> t
(** Uniform random vector of the given width. *)

val to_string : t -> string
(** Binary literal, MSB first, e.g. ["5'b01101"]. *)

val pp : Format.formatter -> t -> unit
