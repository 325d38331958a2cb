(** Arbitrary-width packed bit vectors.

    The shared wide-pattern kernel: a vector of [width] bits stored as
    [ceil (width / 63)] native-int words, 63 payload bits per word, LSB
    first (bit [i] lives in word [i / 63], bit [i mod 63]). The
    simulators treat each bit as one parallel lane; [Bitvec] uses the
    same layout for word-level arithmetic, so conversions are blits.

    The word array is exposed deliberately: hot simulation loops index
    it directly instead of going through per-bit accessors. Unused high
    bits of the last word are kept zero by every operation here;
    writers that touch {!words} directly must preserve that invariant
    (mask with {!last_mask}). *)

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
val num_words : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit
(** Bit access; raise [Invalid_argument] out of range. [set] mutates. *)

val clear : t -> unit

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned lexicographic: width first, then value. *)

val popcount : t -> int
val popcount_word : int -> int
(** Set bits in the whole vector / in one raw word. *)

val first_set : t -> int option
(** Lowest set bit index, if any. *)

val first_diff : t -> t -> int option
(** Lowest index where the two vectors differ — the first detecting
    lane when comparing good and faulty responses. Raises
    [Invalid_argument] on width mismatch. *)

val blit : src:t -> dst:t -> unit

val logand_into : t -> t -> into:t -> unit
val logor_into : t -> t -> into:t -> unit
val logxor_into : t -> t -> into:t -> unit
val lognot_into : t -> into:t -> unit
(** Word-parallel logic, writing into a caller-owned destination (which
    may alias an operand). All operands must share one width. *)

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
